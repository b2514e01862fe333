#include "machine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fuzzy/degree_batch.h"

namespace servebench {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A fixed amount of integer work the compiler cannot fold away.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SpinSeconds(int threads, uint64_t iterations) {
  std::atomic<uint64_t> sink{0};
  const double start = Now();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] { sink += Spin(iterations); });
  }
  for (std::thread& worker : workers) worker.join();
  return Now() - start;
}

}  // namespace

Machine ProbeMachine() {
  Machine machine;
  machine.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));

  // Best of three for each side: the probe asks what the host can give,
  // not what a neighbour happened to take.
  const uint64_t kIterations = 20'000'000;
  double alone = 1e9, together = 1e9;
  for (int trial = 0; trial < 3; ++trial) {
    alone = std::min(alone, SpinSeconds(1, kIterations));
    together = std::min(together, SpinSeconds(machine.nproc, kIterations));
  }
  machine.effective_cores = machine.nproc * alone / together;

  fuzzydb::Rng rng(17);
  fuzzydb::TrapezoidBatch xs;
  while (!xs.full()) {
    const double lo = rng.UniformDouble(0, 100);
    xs.PushBack(fuzzydb::Trapezoid(lo, lo + rng.UniformDouble(0, 2),
                                   lo + rng.UniformDouble(2, 4),
                                   lo + rng.UniformDouble(4, 6)));
  }
  const fuzzydb::Trapezoid y(40, 45, 55, 60);
  std::vector<double> out(fuzzydb::TrapezoidBatch::kCapacity);
  uint64_t evaluations = 0;
  double checksum = 0;
  const double start = Now();
  double elapsed = 0;
  while ((elapsed = Now() - start) < 0.15) {
    for (int round = 0; round < 64; ++round) {
      fuzzydb::BatchEqualityDegree(xs, y, out.data());
      checksum += out[static_cast<size_t>(round)];
      evaluations += xs.size();
    }
  }
  machine.degree_evals_per_s =
      checksum >= 0 ? static_cast<double>(evaluations) / elapsed : 0.0;
  return machine;
}

}  // namespace servebench
