// The three traffic mixes of the served benchmark, generated from the
// run's seed. The server receives only what these functions return, and
// the reference, naive and traced runs replay the same lines.
#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace servebench {

/// One request line of a stream.
struct Request {
  std::string line;
  bool write = false;
  int pool_index = -1;  // reads: index into Workload::pool
  std::string key;      // writes: the unique key the INSERT carries
};

struct Workload {
  std::string name;
  /// fuzzydb_server flags besides --port (main.cc appends --wal-dir for
  /// durable workloads).
  std::vector<std::string> server_flags;
  bool durable = false;  // --wal-dir: the catalog survives a restart

  /// Lines the session runs before the measured window.
  std::vector<std::string> load;

  /// The distinct read statements; the stream draws from this pool.
  std::vector<std::string> pool;
  /// Query template of each pool entry (names in `templates`).
  std::vector<int> pool_template;
  std::vector<std::string> templates;

  /// Keys every durable row carries after `load` (the durability check
  /// expects each one back after a crash).
  std::vector<std::string> loaded_keys;

  /// Count-bounded stream (durable workload): statements in the window.
  /// 0 means the stream is bounded by time instead.
  size_t stream_statements = 0;
  /// Every write_every-th statement of the stream is a single-row
  /// INSERT into S (0: none).
  size_t write_every = 0;

  /// The cheap SELECT a restarted server must answer.
  std::string probe_select;

  /// Naive-vs-unnested check at reduced size: the load to use there
  /// (empty: reuse `load`, already small).
  std::vector<std::string> naive_load;

  uint64_t seed = 0;
};

/// Builds workload `name` for `seed`; `scale` < 1 shrinks the durable
/// load and the stream (tests). Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, double seconds,
                  double scale, Workload* workload);

/// The request stream of the benchmark's connection: reads drawn from
/// the pool and, for a mixed workload, single-row INSERTs with unique
/// keys.
class RequestStream {
 public:
  explicit RequestStream(const Workload& workload);

  /// False once a count-bounded stream is exhausted.
  bool Next(Request* request);

 private:
  const Workload& workload_;
  fuzzydb::Rng rng_;
  size_t issued_ = 0;
  std::vector<int> order_;  // this pass's order of pool indices
  size_t next_ = 0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
