// The host a run measured on, so a later run can tell a change of host
// from a change of code.
#ifndef SERVEBENCH_MACHINE_H_
#define SERVEBENCH_MACHINE_H_

namespace servebench {

struct Machine {
  int nproc = 0;
  /// Spin probe: nproc threads each run the work one thread ran alone;
  /// effective cores = nproc * (time alone) / (time together).
  double effective_cores = 0.0;
  /// Single-thread satisfaction-degree evaluations per second through
  /// the batch kernels (fuzzy/degree_batch.h).
  double degree_evals_per_s = 0.0;
};

Machine ProbeMachine();

}  // namespace servebench

#endif  // SERVEBENCH_MACHINE_H_
