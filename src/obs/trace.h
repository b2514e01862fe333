// Per-operator execution traces: the observability layer behind
// EXPLAIN ANALYZE, the Chrome trace export, and the benchmarks'
// operator-level JSON breakdowns.
//
// An ExecTrace is a tree of spans, one TraceNode per operator instance
// (filter, interval sort, merge window, aggregation, external sort,
// file join, ...). Operators open a span with TraceScope; on close the
// span records its wall time and the *deltas* of the CpuStats/IoStats
// accumulators it was given -- the same accumulators the operators
// already tally into, folded from per-worker slots at the parallel
// barriers (see parallel/parallel_for.h). Because spans open and close
// on the control thread, strictly outside those barriers, every
// recorded counter delta is thread-count-invariant: the same query
// yields the same trace (names, cardinalities, counters) on 1 or 16
// threads; only wall times differ.
//
// Tracing is off by default (ExecOptions::trace == nullptr) and the
// disabled path costs one pointer test per span -- no allocation, no
// clock read, no counter snapshot.
//
// Deltas are computed with the checked helpers (CpuStats::CheckedDelta,
// IoStats::CheckedDelta), which clamp at zero and flag instead of
// wrapping, so a mis-nested span can never report 2^64-ish counters in
// a Release build.
#ifndef FUZZYDB_OBS_TRACE_H_
#define FUZZYDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"
#include "engine/exec_stats.h"
#include "storage/io_stats.h"

namespace fuzzydb {

/// One operator instance in an execution trace. Counter fields are
/// *inclusive*: a parent span's deltas cover its children (use
/// ExecTrace::SelfCpu for the exclusive share).
struct TraceNode {
  /// Sentinel for "the operator did not report this cardinality".
  static constexpr uint64_t kNoCount = ~uint64_t{0};

  std::string name;    // operator, e.g. "merge-window"
  std::string detail;  // annotation, e.g. the query type or table name
  double start_seconds = 0.0;  // offset from the trace epoch
  double wall_seconds = 0.0;
  CpuStats cpu;  // counter deltas over the span (inclusive)
  IoStats io;    // page-traffic deltas over the span (inclusive)
  uint64_t input_rows = kNoCount;
  uint64_t output_rows = kNoCount;
  /// Planner-estimated output cardinality (EXPLAIN ANALYZE renders it as
  /// "est=N" next to the actual rows; the estimator-accuracy gate
  /// computes per-operator q-error from est_rows vs rows_out). kNoCount
  /// when the planner does not estimate the operator.
  uint64_t est_rows = kNoCount;
  /// Batch execution (docs/architecture.md): batch-kernel invocations
  /// inside the span and the lanes they evaluated. kNoCount when the
  /// operator had no batchable work. Like the counter deltas these are
  /// thread-count-invariant (batches are cut at morsel ends), and the
  /// determinism signature in parallel_test.cc includes them.
  uint64_t batches = kNoCount;
  uint64_t batch_rows = kNoCount;
  size_t threads = 1;    // worker slots the operator ran with
  bool clamped = false;  // a counter delta was clamped (snapshot misuse)
  std::vector<size_t> children;  // indices into ExecTrace::nodes()
};

/// A tree of operator spans for one (or several) query executions.
/// Spans must open and close on one thread in LIFO order; parallel
/// operators fold their per-worker tallies before their span closes.
class ExecTrace {
 public:
  ExecTrace() = default;

  /// Opens a span as a child of the innermost open span (or as a root).
  /// Returns the node id used by CloseSpan and node().
  size_t OpenSpan(std::string name, std::string detail = "");

  /// Closes span `id`, recording its wall time. Out-of-order closes are
  /// tolerated by closing every span opened after `id` first.
  void CloseSpan(size_t id);

  TraceNode& node(size_t id) { return nodes_[id]; }
  const std::vector<TraceNode>& nodes() const { return nodes_; }
  const std::vector<size_t>& roots() const { return roots_; }
  bool empty() const { return nodes_.empty(); }

  /// Number of spans still open. A well-formed trace — including one cut
  /// short by a throwing operator — ends at zero: TraceScope destructors
  /// close their spans during unwinding.
  size_t open_span_count() const { return open_.size(); }

  /// Seconds since this trace was constructed (the span clock).
  double ElapsedSeconds() const { return epoch_.ElapsedSeconds(); }

  /// Sum of the root spans' inclusive deltas. When every operator of a
  /// run is spanned, these equal the run's whole-query totals.
  CpuStats TotalCpu() const;
  IoStats TotalIo() const;

  /// Exclusive share of node `id`: its inclusive delta minus its
  /// children's (clamped, never negative).
  CpuStats SelfCpu(size_t id) const;

  /// The annotated tree, one indented line per span, e.g.
  ///   merge-window [R.Y=S.Z] wall=1.234ms rows=300 threads=4
  ///       cpu={pairs=900 degrees=450 cmp=1700 subq=0}
  /// `include_timing` = false drops the wall= fields (golden tests).
  std::string ToString(bool include_timing = true) const;

  /// Chrome trace_event JSON ("ph":"X" complete events, microsecond
  /// timestamps); load in chrome://tracing or Perfetto.
  std::string ToChromeTraceJson() const;

  /// Machine-readable per-operator summary: a JSON array, one object
  /// per span in preorder, with depth/wall/counters/cardinalities.
  std::string ToJsonSummary() const;

 private:
  void AppendText(size_t id, int depth, bool include_timing,
                  std::string* out) const;
  void AppendSummary(size_t id, int depth, bool* first,
                     std::string* out) const;

  Stopwatch epoch_;
  std::vector<TraceNode> nodes_;
  std::vector<size_t> roots_;
  std::vector<size_t> open_;  // stack of open span ids
};

/// RAII span. With a null trace every member is a no-op; otherwise the
/// constructor snapshots the given counter accumulators and the
/// destructor records the checked deltas.
class TraceScope {
 public:
  /// `cpu` / `io` point at the accumulators the spanned operator
  /// tallies into (either may be null: that delta stays zero).
  TraceScope(ExecTrace* trace, std::string_view name,
             const CpuStats* cpu = nullptr, const IoStats* io = nullptr,
             std::string detail = "");
  ~TraceScope() { Close(); }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  bool enabled() const { return trace_ != nullptr; }

  void SetInputRows(uint64_t n) {
    if (trace_ != nullptr) trace_->node(id_).input_rows = n;
  }
  void SetOutputRows(uint64_t n) {
    if (trace_ != nullptr) trace_->node(id_).output_rows = n;
  }
  void SetEstimatedRows(uint64_t n) {
    if (trace_ != nullptr) trace_->node(id_).est_rows = n;
  }
  void SetThreads(size_t n) {
    if (trace_ != nullptr) trace_->node(id_).threads = n;
  }
  void SetDetail(std::string detail) {
    if (trace_ != nullptr) trace_->node(id_).detail = std::move(detail);
  }
  /// Records batch-path usage (EXPLAIN ANALYZE renders it as
  /// "batches=N rows/batch=M"). Call only when batches > 0; spans
  /// without batch work stay unannotated.
  void SetBatches(uint64_t batches, uint64_t batch_rows) {
    if (trace_ != nullptr) {
      trace_->node(id_).batches = batches;
      trace_->node(id_).batch_rows = batch_rows;
    }
  }

  /// Closes the span early (idempotent).
  void Close();

 private:
  ExecTrace* trace_;
  size_t id_ = 0;
  const CpuStats* cpu_source_ = nullptr;
  const IoStats* io_source_ = nullptr;
  CpuStats cpu_before_;
  IoStats io_before_;
};

}  // namespace fuzzydb

#endif  // FUZZYDB_OBS_TRACE_H_
