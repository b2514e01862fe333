#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/query_registry.h"

namespace fuzzydb {
namespace {

// Formats a double the way both the text dump and sys.metrics should see
// it: integers without a fraction, everything else with enough digits to
// round-trip query latencies. Sub-millisecond magnitudes (time counters
// render micros / 1e6) get six digits so short phases don't collapse
// to 0.000.
std::string FormatValue(double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<int64_t>(v))) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(v));
  } else if (std::fabs(v) < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.6f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", v);
  }
  return buf;
}

// Stamped by the build system (root CMakeLists.txt) from git rev-parse;
// "unknown" covers source tarballs and exported checkouts.
#ifndef FUZZYDB_GIT_SHA
#define FUZZYDB_GIT_SHA "unknown"
#endif

std::string CompilerLabel() {
#if defined(__clang_major__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

void AppendHistogramSeries(
    const std::string& name, const HistogramSnapshot& snap,
    std::vector<std::pair<std::string, double>>* out) {
  out->emplace_back(name + "_count", static_cast<double>(snap.total_count));
  out->emplace_back(name + "_sum", static_cast<double>(snap.sum));
  out->emplace_back(name + "_p50", snap.Quantile(0.50));
  out->emplace_back(name + "_p90", snap.Quantile(0.90));
  out->emplace_back(name + "_p99", snap.Quantile(0.99));
  out->emplace_back(name + "_max", static_cast<double>(snap.max));
}

}  // namespace

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next{0};
  thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot % kShards;
}

void MemoryTracker::Charge(uint64_t bytes) {
  const int64_t now = current_.fetch_add(static_cast<int64_t>(bytes),
                                         std::memory_order_relaxed) +
                      static_cast<int64_t>(bytes);
  int64_t prev = peak_.load(std::memory_order_relaxed);
  while (prev < now && !peak_.compare_exchange_weak(
                           prev, now, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::Reset() {
  // Live charges (if any) stay; the high-water mark restarts from them.
  peak_.store(current_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  Counter* c = &counter_storage_.emplace_back();
  counters_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  Gauge* g = &gauge_storage_.emplace_back();
  gauges_.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  Histogram* h = &histogram_storage_.emplace_back();
  histograms_.emplace(name, h);
  return h;
}

MemoryTracker* MetricsRegistry::GetMemoryTracker(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = trackers_.find(name);
  if (it != trackers_.end()) return it->second;
  MemoryTracker* t = &tracker_storage_.emplace_back();
  trackers_.emplace(name, t);
  return t;
}

Counter* MetricsRegistry::GetTimeCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = time_counters_.find(name);
  if (it != time_counters_.end()) return it->second;
  Counter* c = &time_counter_storage_.emplace_back();
  time_counters_.emplace(name, c);
  return c;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, t] : trackers_) t->Reset();
  for (auto& [name, c] : time_counters_) c->Reset();
}

std::vector<std::pair<std::string, double>> MetricsRegistry::FoldSeries()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> series;
  for (const auto& [name, c] : counters_) {
    series.emplace_back(name, static_cast<double>(c->Value()));
  }
  for (const auto& [name, g] : gauges_) {
    series.emplace_back(name, static_cast<double>(g->Value()));
  }
  for (const auto& [name, t] : trackers_) {
    series.emplace_back(name + "_bytes", static_cast<double>(t->Current()));
    series.emplace_back(name + "_peak_bytes",
                        static_cast<double>(t->Peak()));
  }
  for (const auto& [name, c] : time_counters_) {
    // Micros inside, seconds on every surface (_seconds_total names).
    series.emplace_back(name, static_cast<double>(c->Value()) / 1e6);
  }
  for (const auto& [name, h] : histograms_) {
    AppendHistogramSeries(name, h->Snapshot(), &series);
  }
  // maps iterate sorted per kind; merge-sort the kinds by name so the
  // rendering is alphabetical overall.
  std::sort(series.begin(), series.end());
  return series;
}

std::string MetricsRegistry::ToText() const {
  std::ostringstream out;
  for (const auto& [name, value] : FoldSeries()) {
    out << name << " " << FormatValue(value) << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::ToTextAndReset() {
  // FoldSeries() with draining reads: each counter shard and histogram
  // bucket is claimed with exchange(0), so an Add racing this call lands
  // either in the rendered text or in the fresh epoch -- never both.
  std::vector<std::pair<std::string, double>> series;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) {
      series.emplace_back(name, static_cast<double>(c->ValueAndReset()));
    }
    for (auto& [name, g] : gauges_) {
      series.emplace_back(name, static_cast<double>(g->ValueAndReset()));
    }
    for (auto& [name, t] : trackers_) {
      // Live charges survive a reset (Reset() restarts the peak from
      // them), so render-then-reset is the honest drain for trackers.
      series.emplace_back(name + "_bytes",
                          static_cast<double>(t->Current()));
      series.emplace_back(name + "_peak_bytes",
                          static_cast<double>(t->Peak()));
      t->Reset();
    }
    for (auto& [name, c] : time_counters_) {
      series.emplace_back(name,
                          static_cast<double>(c->ValueAndReset()) / 1e6);
    }
    for (auto& [name, h] : histograms_) {
      AppendHistogramSeries(name, h->SnapshotAndReset(), &series);
    }
    std::sort(series.begin(), series.end());
  }
  std::ostringstream out;
  for (const auto& [name, value] : series) {
    out << name << " " << FormatValue(value) << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::ToPrometheusText() const {
  // Render one block per series, then emit sorted by series name so the
  // exposition is stable regardless of metric kind -- ToText/ToJson/
  // sys.metrics sort via FoldSeries(); this surface must match so
  // goldens and docs examples don't depend on registration order.
  //
  // Labeled series embed their labels in the registry name
  // (name{key="value"}); the TYPE line must carry the bare metric name
  // (stripped at the brace), and consecutive blocks of the same label
  // family must not repeat it -- the exposition format allows one TYPE
  // line per metric.
  struct Block {
    std::string sort_key;
    std::string type_line;
    std::string body;
    bool operator<(const Block& other) const {
      return sort_key < other.sort_key;
    }
  };
  const auto bare = [](const std::string& name) {
    const size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
  };
  std::vector<Block> blocks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      std::ostringstream b;
      b << name << " " << c->Value() << "\n";
      blocks.push_back(
          {name, "# TYPE " + bare(name) + " counter\n", b.str()});
    }
    for (const auto& [name, g] : gauges_) {
      std::ostringstream b;
      b << name << " " << g->Value() << "\n";
      blocks.push_back(
          {name, "# TYPE " + bare(name) + " gauge\n", b.str()});
    }
    for (const auto& [name, t] : trackers_) {
      std::ostringstream b;
      b << name << "_bytes " << t->Current() << "\n";
      blocks.push_back({name + "_bytes",
                        "# TYPE " + name + "_bytes gauge\n", b.str()});
      std::ostringstream p;
      p << name << "_peak_bytes " << t->Peak() << "\n";
      blocks.push_back({name + "_peak_bytes",
                        "# TYPE " + name + "_peak_bytes gauge\n",
                        p.str()});
    }
    for (const auto& [name, c] : time_counters_) {
      std::ostringstream b;
      b << name << " "
        << FormatValue(static_cast<double>(c->Value()) / 1e6) << "\n";
      blocks.push_back(
          {name, "# TYPE " + bare(name) + " counter\n", b.str()});
    }
    for (const auto& [name, h] : histograms_) {
      const HistogramSnapshot snap = h->Snapshot();
      std::ostringstream b;
      b << name << "{quantile=\"0.5\"} "
        << FormatValue(snap.Quantile(0.5)) << "\n";
      b << name << "{quantile=\"0.9\"} "
        << FormatValue(snap.Quantile(0.9)) << "\n";
      b << name << "{quantile=\"0.99\"} "
        << FormatValue(snap.Quantile(0.99)) << "\n";
      b << name << "_sum " << snap.sum << "\n";
      b << name << "_count " << snap.total_count << "\n";
      b << name << "_max " << snap.max << "\n";
      blocks.push_back({name, "# TYPE " + name + " summary\n", b.str()});
    }
  }
  std::sort(blocks.begin(), blocks.end());
  std::ostringstream out;
  const std::string* last_type = nullptr;
  for (const Block& block : blocks) {
    if (last_type == nullptr || *last_type != block.type_line) {
      out << block.type_line;
    }
    out << block.body;
    last_type = &block.type_line;
  }
  return out.str();
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, value] : FoldSeries()) {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":" << FormatValue(value);
  }
  out << "}";
  return out.str();
}

Relation MetricsRegistry::ToRelation() const {
  Relation rel("sys.metrics", Schema{{"name", ValueType::kString},
                                     {"value", ValueType::kFuzzy}});
  for (const auto& [name, value] : FoldSeries()) {
    // Round-trip through the text formatting so SHOW METRICS and
    // SELECT ... FROM sys.metrics agree digit-for-digit.
    const double v = std::stod(FormatValue(value));
    (void)rel.Append(
        Tuple({Value::String(name), Value::Number(v)}, /*degree=*/1.0));
  }
  return rel;
}

EngineMetrics* EngineMetrics::Instance() {
  static EngineMetrics* metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    auto* m = new EngineMetrics();
    m->queries_total = reg.GetCounter("fuzzydb_queries_total");
    m->queries_naive_fallback =
        reg.GetCounter("fuzzydb_queries_naive_fallback_total");
    m->queries_failed = reg.GetCounter("fuzzydb_queries_failed_total");
    m->slow_queries = reg.GetCounter("fuzzydb_slow_queries_total");
    m->queries_cancelled = reg.GetCounter("fuzzydb_queries_cancelled_total");
    m->queries_deadline_exceeded =
        reg.GetCounter("fuzzydb_queries_deadline_exceeded_total");
    m->queries_resource_exhausted =
        reg.GetCounter("fuzzydb_queries_resource_exhausted_total");
    m->budget_denied_bytes =
        reg.GetCounter("fuzzydb_budget_denied_bytes_total");
    m->query_latency_us = reg.GetHistogram("fuzzydb_query_latency_us");
    m->naive_blocks = reg.GetCounter("fuzzydb_naive_blocks_total");
    m->naive_rows_out = reg.GetCounter("fuzzydb_naive_rows_out_total");
    m->filter_rows_in = reg.GetCounter("fuzzydb_filter_rows_in_total");
    m->filter_rows_out = reg.GetCounter("fuzzydb_filter_rows_out_total");
    m->sort_rows = reg.GetCounter("fuzzydb_sort_rows_total");
    m->merge_join_rows_in =
        reg.GetCounter("fuzzydb_merge_join_rows_in_total");
    m->merge_join_rows_out =
        reg.GetCounter("fuzzydb_merge_join_rows_out_total");
    m->nested_loop_rows_in =
        reg.GetCounter("fuzzydb_nested_loop_rows_in_total");
    m->nested_loop_rows_out =
        reg.GetCounter("fuzzydb_nested_loop_rows_out_total");
    m->partitioned_join_rows_in =
        reg.GetCounter("fuzzydb_partitioned_join_rows_in_total");
    m->partitioned_join_rows_out =
        reg.GetCounter("fuzzydb_partitioned_join_rows_out_total");
    m->merge_window_length =
        reg.GetHistogram("fuzzydb_merge_window_length");
    m->batch_batches = reg.GetCounter("fuzzydb_batch_batches_total");
    m->batch_rows = reg.GetCounter("fuzzydb_batch_rows_total");
    m->batch_fill = reg.GetHistogram("fuzzydb_batch_fill");
    m->planner_plans = reg.GetCounter("fuzzydb_planner_plans_total");
    m->planner_stats_builds =
        reg.GetCounter("fuzzydb_planner_stats_builds_total");
    m->planner_merge_steps =
        reg.GetCounter("fuzzydb_planner_merge_steps_total");
    m->planner_nested_steps =
        reg.GetCounter("fuzzydb_planner_nested_steps_total");
    m->planner_q_error = reg.GetHistogram("fuzzydb_planner_q_error");
    m->sort_spill_bytes = reg.GetCounter("fuzzydb_sort_spill_bytes_total");
    m->partition_spill_bytes =
        reg.GetCounter("fuzzydb_partition_spill_bytes_total");
    m->sort_memory = reg.GetMemoryTracker("fuzzydb_sort_memory");
    m->join_memory = reg.GetMemoryTracker("fuzzydb_join_memory");
    m->morsel_queue_wait_us =
        reg.GetHistogram("fuzzydb_morsel_queue_wait_us");
    m->sort_stage_us = reg.GetHistogram("fuzzydb_sort_stage_us");
    m->join_stage_us = reg.GetHistogram("fuzzydb_join_stage_us");
    m->cache_hits = reg.GetCounter("fuzzydb_cache_hits_total");
    m->cache_misses = reg.GetCounter("fuzzydb_cache_misses_total");
    m->cache_inserts = reg.GetCounter("fuzzydb_cache_inserts_total");
    m->cache_evictions = reg.GetCounter("fuzzydb_cache_evictions_total");
    m->cache_bytes = reg.GetGauge("fuzzydb_cache_bytes");
    m->journal_records = reg.GetCounter("fuzzydb_journal_records_total");
    m->journal_errors = reg.GetCounter("fuzzydb_journal_errors_total");
    // Two labeled outcomes of one series: "rotated" counts rotations
    // performed, "dropped" counts files deleted because they fell past
    // the keep-N generation window.
    m->journal_rotations =
        reg.GetCounter(std::string("fuzzydb_journal_rotations_total") +
                       "{outcome=\"rotated\"}");
    m->journal_rotations_dropped =
        reg.GetCounter(std::string("fuzzydb_journal_rotations_total") +
                       "{outcome=\"dropped\"}");
    m->queries_killed = reg.GetCounter("fuzzydb_queries_killed_total");
    // One labeled series per pipeline phase; slot 0 (kNone) stays null.
    m->phase_seconds[0] = nullptr;
    for (size_t i = 1; i < kNumQueryPhases; ++i) {
      m->phase_seconds[i] = reg.GetTimeCounter(
          std::string("fuzzydb_phase_seconds_total") + "{phase=\"" +
          QueryPhaseName(static_cast<QueryPhase>(i)) + "\"}");
    }
    m->build_info = reg.GetGauge(std::string("fuzzydb_build_info") +
                                 "{git_sha=\"" + FUZZYDB_GIT_SHA +
                                 "\",compiler=\"" + CompilerLabel() + "\"}");
    m->build_info->Set(1);
    return m;
  }();
  return metrics;
}

EngineMetrics* EngineMetrics::IfEnabled() {
  if (!MetricsRegistry::Global().enabled()) return nullptr;
  return Instance();
}

SlowQueryLog& SlowQueryLog::Global() {
  static SlowQueryLog* log = new SlowQueryLog();
  return *log;
}

void SlowQueryLog::Add(Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
  while (entries_.size() > kCapacity) entries_.pop_front();
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {entries_.begin(), entries_.end()};
}

void SlowQueryLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t SlowQueryLog::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

Relation SlowQueryLog::ToRelation() const {
  Relation rel("sys.slowlog", Schema{{"elapsed_ms", ValueType::kFuzzy},
                                     {"query", ValueType::kString},
                                     {"trace", ValueType::kString}});
  for (const Entry& entry : Entries()) {
    (void)rel.Append(Tuple({Value::Number(entry.elapsed_ms),
                            Value::String(entry.query_text),
                            Value::String(entry.trace_text)},
                           /*degree=*/1.0));
  }
  return rel;
}

}  // namespace fuzzydb
