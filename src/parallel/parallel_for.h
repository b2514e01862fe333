// ParallelFor / ParallelSort: the facade engine operators use.
//
// Both primitives are *deterministic across thread counts*: the work
// decomposition is a pure function of (input size, morsel size), only the
// assignment of morsels to workers varies. An operator that
//   - writes per-morsel outputs merged in morsel order, and
//   - tallies statistics into per-worker slots summed at the barrier
// produces identical results (tuples, degrees, and counters) whether it
// runs on one thread or sixteen. The equivalence/determinism tests
// enforce this property for every query type.
#ifndef FUZZYDB_PARALLEL_PARALLEL_FOR_H_
#define FUZZYDB_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/query_context.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"

namespace fuzzydb {

class CacheManager;
class QueryProgress;

/// How an operator should parallelize: the pool to run on (null = run on
/// the calling thread) and the morsel granularity.
struct ParallelContext {
  ThreadPool* pool = nullptr;  // not owned; nullptr means serial
  size_t morsel_size = 2048;   // tuples per morsel

  /// Governance: when set, morsel dispatch stops as soon as the query is
  /// cancelled, past its deadline, or over budget -- workers finish the
  /// morsel in hand and stop pulling, bounding the latency of a stop
  /// request to one morsel. Null means ungoverned (run to completion).
  const QueryContext* query = nullptr;  // not owned

  /// Cross-query cache consulted by the evaluator's operators (see
  /// cache/cache_manager.h). Null or capacity 0 means no caching; always
  /// consulted from the coordinating thread only, so cache stats stay
  /// thread-count invariant.
  CacheManager* cache = nullptr;  // not owned

  /// Live progress for SHOW QUERIES (see obs/query_registry.h): every
  /// completed morsel bumps its morsel/item counters with one relaxed
  /// add from whichever worker finished it. The counted totals are a
  /// pure function of the morsel decomposition, hence thread-count
  /// invariant. Null (the default) costs one pointer test per morsel.
  QueryProgress* progress = nullptr;  // not owned
};

/// Number of distinct worker slots a ParallelFor body may observe; size
/// per-worker statistics buffers with this.
size_t WorkerSlots(const ParallelContext& ctx);

/// Runs `body(worker, begin, end)` over every morsel of [0, total).
/// `worker` is in [0, WorkerSlots(ctx)); each worker processes one morsel
/// at a time, so per-worker state needs no synchronization. Blocks until
/// all morsels are done; the first exception thrown by a body is
/// rethrown here (remaining morsels still complete). Must not be called
/// from inside a pool worker (the pool does not run nested tasks and the
/// barrier would deadlock once every worker waits).
///
/// Returns false when a governed stop (ctx.query) kept morsels from
/// being dispatched: the body then did not see all of [0, total), so
/// the caller's per-morsel output is partial and must not be used.
/// A stop that fires after the last morsel was handed out still
/// returns true -- the work is complete.
[[nodiscard]] bool ParallelFor(
    const ParallelContext& ctx, size_t total,
    const std::function<void(size_t worker, size_t begin, size_t end)>& body);

/// As above with an explicit morsel size overriding ctx.morsel_size
/// (e.g. one partition or one run-pair per morsel).
[[nodiscard]] bool ParallelFor(
    const ParallelContext& ctx, size_t total, size_t morsel_size,
    const std::function<void(size_t worker, size_t begin, size_t end)>& body);

/// Sorts *v by the comparator `make_less` builds. `make_less` is called
/// with a `uint64_t*` the comparator must increment once per invocation;
/// the counted total (a deterministic function of the input) is added to
/// *comparisons when non-null.
///
/// Algorithm: the vector is cut into fixed runs of ctx.morsel_size, each
/// run is std::sort-ed (in parallel), and runs are combined by rounds of
/// pairwise merges with a fixed tree shape (pairs merged in parallel
/// within a round). Because the run boundaries and the merge tree depend
/// only on (size, morsel_size), the comparator call count and the final
/// element order are identical for every thread count. Inputs no larger
/// than one morsel degenerate to a single std::sort -- today's serial
/// behavior, bit for bit.
///
/// Returns false when a governed stop (ctx.query) cut the sort short:
/// ParallelFor then skipped run sorts or merges, so *v may hold
/// unsorted runs or default-constructed elements and must not be read.
template <typename T, typename MakeLess>
[[nodiscard]] bool ParallelSort(const ParallelContext& ctx, std::vector<T>* v,
                                uint64_t* comparisons, MakeLess&& make_less) {
  const size_t n = v->size();
  const size_t morsel = ctx.morsel_size == 0 ? 1 : ctx.morsel_size;
  uint64_t total = 0;
  if (n <= morsel) {
    uint64_t count = 0;
    std::sort(v->begin(), v->end(), make_less(&count));
    total = count;
  } else {
    // Per-run sorts; counts are kept per run so workers never share a
    // counter (and the sum is scheduling-independent).
    const size_t num_runs = (n + morsel - 1) / morsel;
    std::vector<uint64_t> run_counts(num_runs, 0);
    if (!ParallelFor(ctx, n, morsel, [&](size_t, size_t begin, size_t end) {
          std::sort(v->begin() + static_cast<ptrdiff_t>(begin),
                    v->begin() + static_cast<ptrdiff_t>(end),
                    make_less(&run_counts[begin / morsel]));
        })) {
      return false;
    }
    for (uint64_t c : run_counts) total += c;

    // Pairwise merge rounds over a ping-pong buffer.
    std::vector<T> buffer(n);
    std::vector<T>* src = v;
    std::vector<T>* dst = &buffer;
    for (size_t width = morsel; width < n; width *= 2) {
      const size_t num_pairs = (n + 2 * width - 1) / (2 * width);
      std::vector<uint64_t> pair_counts(num_pairs, 0);
      const bool merged = ParallelFor(ctx, num_pairs, 1, [&](size_t,
                                                             size_t pair_begin,
                                                             size_t pair_end) {
        for (size_t p = pair_begin; p < pair_end; ++p) {
          const size_t lo = p * 2 * width;
          const size_t mid = std::min(lo + width, n);
          const size_t hi = std::min(lo + 2 * width, n);
          auto from = [&](size_t i) {
            return std::make_move_iterator(src->begin() +
                                           static_cast<ptrdiff_t>(i));
          };
          if (mid < hi) {
            std::merge(from(lo), from(mid), from(mid), from(hi),
                       dst->begin() + static_cast<ptrdiff_t>(lo),
                       make_less(&pair_counts[p]));
          } else {
            // Odd run out: carried to the next round unmerged.
            std::move(src->begin() + static_cast<ptrdiff_t>(lo),
                      src->begin() + static_cast<ptrdiff_t>(hi),
                      dst->begin() + static_cast<ptrdiff_t>(lo));
          }
        }
      });
      if (!merged) return false;
      for (uint64_t c : pair_counts) total += c;
      std::swap(src, dst);
    }
    if (src != v) *v = std::move(*src);
  }
  if (comparisons != nullptr) *comparisons += total;
  return true;
}

}  // namespace fuzzydb

#endif  // FUZZYDB_PARALLEL_PARALLEL_FOR_H_
