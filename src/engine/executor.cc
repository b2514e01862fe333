#include "engine/executor.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

#include "cache/cache_manager.h"
#include "common/query_context.h"
#include "common/stopwatch.h"
#include "engine/merge_join.h"
#include "engine/nested_loop_join.h"
#include "fuzzy/interval_order.h"
#include "obs/metrics.h"
#include "obs/query_registry.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "sort/external_sort.h"
#include "storage/temp_file_guard.h"

namespace fuzzydb {

namespace {

/// Accumulates answer degrees per distinct projected value (fuzzy OR:
/// duplicates keep the maximum degree).
class AnswerAccumulator {
 public:
  void Add(const Value& x, double degree) {
    auto [it, inserted] = degrees_.emplace(x, degree);
    if (!inserted && degree > it->second) it->second = degree;
  }

  Relation Finish(double threshold) const {
    Relation answer("answer", Schema{Column{"X", ValueType::kFuzzy}});
    for (const auto& [x, d] : degrees_) {
      if (d >= threshold && d > 0.0) {
        (void)answer.Append(Tuple({x}, d));
      }
    }
    return answer;
  }

 private:
  std::map<Value, double, ValueLess> degrees_;
};

/// Interval-order comparator on tuple column `col` that counts
/// comparisons into `cpu`. With a WITH-threshold pushdown (`alpha` > 0)
/// the order is taken over the alpha-cuts instead of the supports, so
/// the thresholded merge window stays sound.
TupleLess IntervalLessOnColumn(size_t col, CpuStats* cpu, double alpha = 0) {
  return [col, cpu, alpha](const Tuple& a, const Tuple& b) {
    if (cpu != nullptr) ++cpu->comparisons;
    const Trapezoid& x = a.ValueAt(col).AsFuzzy();
    const Trapezoid& y = b.ValueAt(col).AsFuzzy();
    if (x.AlphaCutBegin(alpha) != y.AlphaCutBegin(alpha)) {
      return x.AlphaCutBegin(alpha) < y.AlphaCutBegin(alpha);
    }
    return x.AlphaCutEnd(alpha) < y.AlphaCutEnd(alpha);
  };
}

}  // namespace

Result<RunResult> RunTypeJNestedLoop(PageFile* r_file, PageFile* s_file,
                                     const TypeJQuerySpec& spec,
                                     size_t buffer_pages,
                                     const ExecOptions* options) {
  RunResult result;
  Stopwatch wall;
  CpuStopwatch cpu_clock;
  ExecTrace* trace = options == nullptr ? nullptr : options->trace;
  TraceScope span(trace, "query", &result.stats.cpu, &result.stats.io,
                  "typeJ nested-loop");

  FuzzyJoinSpec join;
  join.outer_key = spec.r_y;
  join.inner_key = spec.s_z;
  join.key_op = CompareOp::kEq;
  join.residuals.push_back({spec.r_u, spec.s_v, CompareOp::kEq});

  AnswerAccumulator acc;
  FUZZYDB_RETURN_IF_ERROR(FileNestedLoopJoin(
      r_file, s_file, &result.stats.io, buffer_pages, join,
      &result.stats.cpu, [&](const Tuple& r, const Tuple& s, double d) {
        (void)s;
        acc.Add(r.ValueAt(spec.r_x), d);
        return Status::OK();
      }, trace, options == nullptr ? nullptr : options->context));

  result.answer = acc.Finish(spec.threshold);
  span.SetOutputRows(result.answer.NumTuples());
  result.stats.join_seconds = wall.ElapsedSeconds();
  result.stats.total_seconds = wall.ElapsedSeconds();
  result.stats.cpu_seconds = cpu_clock.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->join_stage_us->Record(
        static_cast<uint64_t>(result.stats.join_seconds * 1e6));
  }
  return result;
}

Result<RunResult> RunTypeJMergeJoin(PageFile* r_file, PageFile* s_file,
                                    const TypeJQuerySpec& spec,
                                    size_t buffer_pages,
                                    const std::string& temp_prefix,
                                    size_t min_record_size,
                                    const ExecOptions* options) {
  RunResult result;
  Stopwatch wall;
  CpuStopwatch cpu_clock;
  BufferPool pool(buffer_pages, &result.stats.io);
  ExecTrace* trace = options == nullptr ? nullptr : options->trace;
  TraceScope span(trace, "query", &result.stats.cpu, &result.stats.io,
                  "typeJ merge");

  // Worker pool for the CPU-bound run sorts. Only engaged with > 1
  // thread: the parallel run-sort path's comparison count differs from
  // std::sort's, so single-threaded options must match nullptr exactly.
  std::unique_ptr<ThreadPool> workers;
  ParallelContext parallel_ctx;
  const ParallelContext* parallel = nullptr;
  QueryContext* query = options == nullptr ? nullptr : options->context;
  QueryProgress* progress =
      options == nullptr ? nullptr : options->progress;
  if (options != nullptr && options->ResolvedThreads() > 1) {
    workers = std::make_unique<ThreadPool>(options->ResolvedThreads());
    parallel_ctx.pool = workers.get();
    parallel_ctx.morsel_size = options->morsel_size;
    parallel_ctx.query = query;
    parallel_ctx.progress = progress;
    parallel = &parallel_ctx;
  }

  // ---- Sort phase (charged to sort_seconds; Table 3) ----------------
  // With a WITH threshold the sort key is the threshold-cut interval
  // (the [42] indicator optimization); the join window then prunes on
  // the same cuts.
  Stopwatch sort_watch;
  PhaseScope sort_phase(progress, QueryPhase::kSort);
  SortStats sort_stats;
  // Both sorted temporaries are tracked until the success-path cleanup
  // below: if the second sort (or the join) fails, the first sort's
  // output must not be left behind. Cache-owned sorted runs are never
  // tracked -- they outlive this query by design.
  TempFileGuard sorted_guard(&pool);
  CacheManager* cache = options == nullptr ? nullptr : options->cache;
  if (cache != nullptr && !cache->enabled()) cache = nullptr;

  // Cache key for one sorted side. The input file's registered version
  // (LSN) makes stale hits impossible: any write to the base file stamps
  // a fresh version and the old key is never looked up again. The sort
  // order depends on the key column and the alpha-cut threshold, and the
  // record layout on min_record_size, so all three are part of the key.
  auto sorted_run_key = [&](PageFile* input, size_t col) {
    uint64_t bits = 0;
    std::memcpy(&bits, &spec.threshold, sizeof(bits));
    char alpha_hex[32];
    std::snprintf(alpha_hex, sizeof(alpha_hex), "%016" PRIx64, bits);
    return "srun|" + input->path() + "|v" + std::to_string(input->version()) +
           "|c" + std::to_string(col) + "|a" + alpha_hex + "|r" +
           std::to_string(min_record_size);
  };

  // Produces the interval-order-sorted run for one side: from the
  // sorted-run cache when a current-version entry exists, otherwise by
  // ExternalSort. A hit whose file cannot be opened (evicted between
  // lookup and open) falls back to the cold path.
  bool r_from_cache = false;
  bool s_from_cache = false;
  std::string r_key;
  std::string s_key;
  auto sorted_input =
      [&](PageFile* input, size_t col, const std::string& run_prefix,
          const std::string& sorted_path, std::string* key,
          bool* from_cache) -> Result<std::unique_ptr<PageFile>> {
    if (cache != nullptr) {
      *key = sorted_run_key(input, col);
      std::string cached_path;
      if (cache->LookupSortedFile(*key, &cached_path)) {
        auto reopened = PageFile::Open(cached_path);
        if (reopened.ok()) {
          TraceScope cached(trace, "sort", nullptr, nullptr,
                            input->path() + " (cached)");
          *from_cache = true;
          return std::move(reopened).value();
        }
      }
    }
    FUZZYDB_ASSIGN_OR_RETURN(
        std::unique_ptr<PageFile> sorted,
        ExternalSort(input, &pool,
                     IntervalLessOnColumn(col, nullptr, spec.threshold),
                     run_prefix, sorted_path, buffer_pages, min_record_size,
                     &sort_stats, parallel, trace, query));
    sorted_guard.Track(sorted->path());
    return sorted;
  };

  std::unique_ptr<PageFile> r_sorted;
  FUZZYDB_ASSIGN_OR_RETURN(
      r_sorted, sorted_input(r_file, spec.r_y, temp_prefix + ".R",
                             temp_prefix + ".R.sorted", &r_key,
                             &r_from_cache));
  std::unique_ptr<PageFile> s_sorted;
  FUZZYDB_ASSIGN_OR_RETURN(
      s_sorted, sorted_input(s_file, spec.s_z, temp_prefix + ".S",
                             temp_prefix + ".S.sorted", &s_key,
                             &s_from_cache));
  result.stats.cpu.comparisons += sort_stats.comparisons;
  result.stats.sort_seconds = sort_watch.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->sort_stage_us->Record(
        static_cast<uint64_t>(result.stats.sort_seconds * 1e6));
  }

  // ---- Join phase ----------------------------------------------------
  Stopwatch join_watch;
  PhaseScope join_phase(progress, QueryPhase::kJoin);
  pool.Clear();  // the paper's join phase starts with a cold buffer

  FuzzyJoinSpec join;
  join.outer_key = spec.r_y;
  join.inner_key = spec.s_z;
  join.key_op = CompareOp::kEq;
  join.residuals.push_back({spec.r_u, spec.s_v, CompareOp::kEq});
  join.threshold = spec.threshold;

  AnswerAccumulator acc;
  FUZZYDB_RETURN_IF_ERROR(FileMergeJoin(
      r_sorted.get(), s_sorted.get(), &pool, join, &result.stats.cpu,
      [&](const Tuple& r, const Tuple& s, double d) {
        (void)s;
        acc.Add(r.ValueAt(spec.r_x), d);
        return Status::OK();
      }, trace, query));

  result.answer = acc.Finish(spec.threshold);
  span.SetOutputRows(result.answer.NumTuples());
  result.stats.join_seconds = join_watch.ElapsedSeconds();
  result.stats.total_seconds = wall.ElapsedSeconds();
  result.stats.cpu_seconds = cpu_clock.ElapsedSeconds();
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->join_stage_us->Record(
        static_cast<uint64_t>(result.stats.join_seconds * 1e6));
  }

  // Clean up the sorted temporaries. A freshly sorted run is offered to
  // the cache first (which takes ownership by renaming it); only when
  // the cache declines -- disabled, duplicate key, or failpoint -- is
  // the file deleted. Cache-served runs stay where they are: the cache
  // owns those files.
  pool.Invalidate(r_sorted.get());
  pool.Invalidate(s_sorted.get());
  const std::string r_path = r_sorted->path();
  const std::string s_path = s_sorted->path();
  const uint64_t r_bytes = static_cast<uint64_t>(r_sorted->NumPages()) *
                           static_cast<uint64_t>(kPageSize);
  const uint64_t s_bytes = static_cast<uint64_t>(s_sorted->NumPages()) *
                           static_cast<uint64_t>(kPageSize);
  r_sorted.reset();
  s_sorted.reset();
  if (!r_from_cache &&
      !(cache != nullptr &&
        cache->InsertSortedFile(r_key, r_path, r_bytes, query))) {
    RemoveFileIfExists(r_path);
  }
  if (!s_from_cache &&
      !(cache != nullptr &&
        cache->InsertSortedFile(s_key, s_path, s_bytes, query))) {
    RemoveFileIfExists(s_path);
  }
  sorted_guard.Dismiss();
  return result;
}

}  // namespace fuzzydb
