#include "engine/merge_join.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/query_context.h"
#include "fuzzy/degree_batch.h"
#include "fuzzy/trapezoid_batch.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fuzzydb {

void JoinChunkDegrees(const Tuple& r, size_t count,
                      const FuzzyJoinSpec& spec, JoinScratch* js,
                      CpuStats* cpu, Histogram* fill_hist) {
  double* deg = js->degree.data();
  double* res = js->result.data();
  uint32_t* active = js->active.data();
  const Tuple* const* window = js->window.data();
  const double r_degree = r.degree();
  for (size_t k = 0; k < count; ++k) {
    deg[k] = std::min(r_degree, window[k]->degree());
  }

  // The key stage, then each residual: identical structure, so one
  // lambda runs them all. `outer` is r's operand (the same value for
  // every lane); a non-fuzzy value on either side drops the whole
  // stage to the per-lane scalar fallback with the same counting.
  auto run_stage = [&](const Value& outer, CompareOp op, size_t inner_col) {
    size_t live = 0;
    for (size_t k = 0; k < count; ++k) {
      active[live] = static_cast<uint32_t>(k);
      live += static_cast<size_t>(deg[k] > 0.0);
    }
    if (live == 0) return false;  // every lane exited: skip later stages
    bool batched = outer.is_fuzzy();
    if (batched) {
      js->operand.Clear();
      for (size_t j = 0; j < live; ++j) {
        const Value& v = window[active[j]]->ValueAt(inner_col);
        if (!v.is_fuzzy()) {
          batched = false;
          break;
        }
        js->operand.PushBack(v.AsFuzzy());
      }
    }
    if (batched) {
      BatchSatisfactionDegree(outer.AsFuzzy(), op, js->operand,
                              /*approx_tolerance=*/1.0, res);
      if (cpu != nullptr) cpu->degree_evaluations += live;
      ++js->batches;
      js->rows += live;
      if (fill_hist != nullptr) fill_hist->Record(live);
      for (size_t j = 0; j < live; ++j) {
        const size_t k = active[j];
        deg[k] = std::min(deg[k], res[j]);
      }
    } else {
      for (size_t j = 0; j < live; ++j) {
        const size_t k = active[j];
        if (cpu != nullptr) ++cpu->degree_evaluations;
        deg[k] = std::min(
            deg[k], outer.Compare(op, window[k]->ValueAt(inner_col)));
      }
    }
    return true;
  };

  if (!run_stage(r.ValueAt(spec.outer_key), spec.key_op, spec.inner_key)) {
    return;
  }
  for (const auto& residual : spec.residuals) {
    if (!run_stage(r.ValueAt(residual.outer_col), residual.op,
                   residual.inner_col)) {
      return;
    }
  }
}

Status FileMergeJoin(PageFile* sorted_outer, PageFile* sorted_inner,
                     BufferPool* pool, const FuzzyJoinSpec& spec,
                     CpuStats* cpu, const JoinEmit& emit, ExecTrace* trace,
                     QueryContext* query) {
  TraceScope span(trace, "merge-join", cpu,
                  pool == nullptr ? nullptr : &pool->stats());
  uint64_t outer_rows = 0;
  uint64_t emitted = 0;
  EngineMetrics* metrics = EngineMetrics::IfEnabled();
  Histogram* window_hist =
      metrics == nullptr ? nullptr : metrics->merge_window_length;
  Histogram* fill_hist = metrics == nullptr ? nullptr : metrics->batch_fill;
  const auto scratch = std::make_unique<JoinScratch>();
  HeapFileScanner outer_scan(sorted_outer, pool);
  HeapFileScanner inner_scan(sorted_inner, pool);

  // The in-memory window of inner tuples: tuples retired from the front
  // as the outer key advances, extended at the back on demand. The
  // window is the operator's resident memory: charged as tuples enter,
  // released as they retire (the scope release keeps the budget balanced
  // on early returns).
  std::deque<Tuple> window;
  ScopedBudget window_budget(query);
  bool inner_exhausted = false;
  Tuple pending_inner;   // read past the window end, not yet needed
  bool has_pending = false;

  Tuple r;
  bool has_r = false;
  while (true) {
    FUZZYDB_RETURN_IF_ERROR(CheckQuery(query));
    FUZZYDB_RETURN_IF_ERROR(outer_scan.Next(&r, &has_r));
    if (!has_r) break;
    ++outer_rows;
    const Value& rv = r.ValueAt(spec.outer_key);
    if (!rv.is_fuzzy()) {
      return Status::InvalidArgument("merge-join key must be fuzzy");
    }
    // With a WITH-threshold pushdown the window works on alpha-cuts
    // (threshold 0 degenerates to the support interval).
    const double alpha = spec.threshold;
    const double r_begin = rv.AsFuzzy().AlphaCutBegin(alpha);
    const double r_end = rv.AsFuzzy().AlphaCutEnd(alpha);

    // Retire window tuples wholly before r (e(s.X) < b(r.X)); later outer
    // tuples have keys no smaller, so retirement is permanent.
    while (!window.empty()) {
      if (cpu != nullptr) ++cpu->comparisons;
      if (window.front().ValueAt(spec.inner_key).AsFuzzy().AlphaCutEnd(
              alpha) < r_begin) {
        window_budget.Release(SerializedTupleSize(window.front()));
        window.pop_front();
      } else {
        break;
      }
    }

    // Extend the window until the first inner tuple wholly after r
    // (b(s.X) > e(r.X)); that tuple is kept pending for the next r.
    if (has_pending) {
      if (cpu != nullptr) ++cpu->comparisons;
      const Trapezoid& pk = pending_inner.ValueAt(spec.inner_key).AsFuzzy();
      if (pk.AlphaCutEnd(alpha) < r_begin) {
        // The pending tuple fell wholly before this (and thus every
        // later) outer tuple: drop it without ever entering the window.
        has_pending = false;
      } else if (pk.AlphaCutBegin(alpha) <= r_end) {
        FUZZYDB_RETURN_IF_ERROR(
            window_budget.Charge(SerializedTupleSize(pending_inner)));
        window.push_back(std::move(pending_inner));
        has_pending = false;
      }
    }
    while (!has_pending && !inner_exhausted) {
      Tuple s;
      bool has_s = false;
      FUZZYDB_RETURN_IF_ERROR(inner_scan.Next(&s, &has_s));
      if (!has_s) {
        inner_exhausted = true;
        break;
      }
      if (cpu != nullptr) ++cpu->comparisons;
      const Trapezoid& sk = s.ValueAt(spec.inner_key).AsFuzzy();
      if (sk.AlphaCutEnd(alpha) < r_begin) {
        continue;  // wholly before r: skip (can never join later either)
      }
      if (sk.AlphaCutBegin(alpha) > r_end) {
        pending_inner = std::move(s);
        has_pending = true;
        break;
      }
      FUZZYDB_RETURN_IF_ERROR(window_budget.Charge(SerializedTupleSize(s)));
      window.push_back(std::move(s));
    }

    // Join r against its window Rng(r).
    if (window_hist != nullptr) window_hist->Record(window.size());
    // The window is evaluated in chunks, then the surviving pairs are
    // emitted in window order.
    auto it = window.begin();
    size_t remaining = window.size();
    while (remaining > 0) {
      const size_t count = std::min(TrapezoidBatch::kCapacity, remaining);
      for (size_t k = 0; k < count; ++k) scratch->window[k] = &*it++;
      remaining -= count;
      if (cpu != nullptr) cpu->tuple_pairs += count;
      JoinChunkDegrees(r, count, spec, scratch.get(), cpu, fill_hist);
      for (size_t k = 0; k < count; ++k) {
        const double d = scratch->degree[k];
        if (d > 0.0 && d >= spec.threshold) {
          ++emitted;
          FUZZYDB_RETURN_IF_ERROR(emit(r, *scratch->window[k], d));
        }
      }
    }
  }
  if (metrics != nullptr) {
    metrics->merge_join_rows_in->Add(outer_rows);
    metrics->merge_join_rows_out->Add(emitted);
    if (scratch->batches > 0) {
      metrics->batch_batches->Add(scratch->batches);
      metrics->batch_rows->Add(scratch->rows);
    }
  }
  if (scratch->batches > 0) {
    span.SetBatches(scratch->batches, scratch->rows);
  }
  span.SetInputRows(outer_rows);
  span.SetOutputRows(emitted);
  return Status::OK();
}

}  // namespace fuzzydb
