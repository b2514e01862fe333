// Execution knobs shared by the evaluators and file-based runners.
#ifndef FUZZYDB_ENGINE_EXEC_OPTIONS_H_
#define FUZZYDB_ENGINE_EXEC_OPTIONS_H_

#include <cstddef>
#include <string>
#include <thread>

namespace fuzzydb {

class CacheManager;
class ExecTrace;
class QueryContext;
class QueryProgress;

/// Options controlling how a query is executed. Every parallel path is
/// deterministic: results and CpuStats are identical for every
/// num_threads, so these knobs trade wall time only.
struct ExecOptions {
  /// Worker threads for the parallel operators; 0 means
  /// hardware_concurrency(), 1 runs everything on the calling thread.
  size_t num_threads = 0;

  /// When set, operators append per-operator spans (wall time, counter
  /// deltas, cardinalities) to this trace (see obs/trace.h). Null (the
  /// default) disables tracing; the disabled path costs one pointer
  /// test per span. Trace counters are thread-count-invariant.
  ExecTrace* trace = nullptr;

  /// Tuples handed to a worker at a time (see parallel/morsel.h). The
  /// default keeps per-morsel state L1/L2-resident while leaving enough
  /// morsels for load balancing on the bench workloads; tests shrink it
  /// to exercise many-morsel schedules on small relations.
  size_t morsel_size = 2048;

  /// When > 0, a query whose wall time reaches this many milliseconds is
  /// recorded in SlowQueryLog::Global() together with its rendered
  /// EXPLAIN ANALYZE tree. If `trace` is null the evaluator attaches a
  /// private trace for the duration of the query so the tree is still
  /// captured; with the threshold at 0 (the default) nothing changes.
  double slow_query_ms = 0.0;

  /// The SQL text of the statement being executed, for the slow-query
  /// log. Optional; empty means the log entry has no query text.
  std::string query_text;

  /// Lifecycle governance for this query: cooperative cancellation, a
  /// wall-clock deadline, and a memory budget (see
  /// common/query_context.h). Operators poll it at morsel and page
  /// boundaries, so a stop request surfaces as a well-formed
  /// CANCELLED / DEADLINE_EXCEEDED / RESOURCE_EXHAUSTED status within
  /// one morsel/page of work. Null (the default) means ungoverned.
  QueryContext* context = nullptr;  // not owned

  /// Cross-query cache (see cache/cache_manager.h). Null or a cache with
  /// capacity 0 disables caching: every operator behaves exactly as if
  /// this layer did not exist, metrics included. The cache is consulted
  /// only from the coordinating thread, so cache stats are thread-count
  /// invariant like everything else here.
  CacheManager* cache = nullptr;  // not owned

  /// Live progress publication for SHOW QUERIES / sys.queries (see
  /// obs/query_registry.h). Operators bump its counters at morsel
  /// granularity and switch its phase on the control thread; null (the
  /// default) disables introspection at one pointer test per touch
  /// point, the same discipline as `trace`. Progress counters are
  /// thread-count-invariant; phase times are wall-clock.
  QueryProgress* progress = nullptr;  // not owned

  size_t ResolvedThreads() const {
    if (num_threads > 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }
};

}  // namespace fuzzydb

#endif  // FUZZYDB_ENGINE_EXEC_OPTIONS_H_
