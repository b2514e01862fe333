#include "obs/query_journal.h"

#include <cstdio>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace fuzzydb {

namespace {

std::string RenderRecord(uint64_t id, const QueryJournalRecord& r) {
  std::ostringstream out;
  out << "{\"id\":" << id << ",\"query_id\":" << r.query_id << ",\"sql\":\""
      << JsonEscape(r.sql) << "\",\"fingerprint\":\""
      << JsonEscape(r.fingerprint) << "\",\"type\":\"" << JsonEscape(r.type)
      << "\",\"engine\":\"" << JsonEscape(r.engine) << "\",\"status\":\""
      << JsonEscape(r.status) << "\",\"rows\":" << r.rows << ",\"est_rows\":";
  if (r.has_est_rows) {
    out << r.est_rows;
  } else {
    out << "null";
  }
  out << ",\"elapsed_ms\":" << r.elapsed_ms
      << ",\"queue_wait_ms\":" << r.queue_wait_ms
      << ",\"threads\":" << r.threads << ",\"phases_us\":{";
  for (size_t i = 1; i < kNumQueryPhases; ++i) {
    if (i > 1) out << ",";
    out << "\"" << QueryPhaseName(static_cast<QueryPhase>(i)) << "\":"
        << r.phase_micros[i];
  }
  out << "},\"cpu\":{\"pairs\":" << r.cpu.tuple_pairs
      << ",\"degrees\":" << r.cpu.degree_evaluations
      << ",\"cmp\":" << r.cpu.comparisons
      << ",\"subq\":" << r.cpu.subquery_evaluations
      << "},\"io\":{\"page_reads\":" << r.io.page_reads
      << ",\"page_writes\":" << r.io.page_writes
      << ",\"buffer_hits\":" << r.io.buffer_hits
      << "},\"mem_peak_bytes\":" << r.mem_peak_bytes
      << ",\"cache_hits\":" << r.cache_hits
      << ",\"cache_misses\":" << r.cache_misses << "}";
  return out.str();
}

}  // namespace

QueryJournal& QueryJournal::Global() {
  static QueryJournal* journal = new QueryJournal();
  return *journal;
}

Status QueryJournal::SetPath(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.close();
  path_ = path;
  bytes_written_ = 0;
  // New id session: ids restart at 1 (journal_check.py treats that as a
  // session boundary) and the sampling epoch restarts with them, so the
  // first record of the new session is always written.
  seq_ = 0;
  sample_seq_ = 0;
  if (path_.empty()) {
    enabled_.store(false, std::memory_order_relaxed);
    return Status::OK();
  }
  out_.open(path_, std::ios::out | std::ios::app);
  if (!out_) {
    enabled_.store(false, std::memory_order_relaxed);
    return Status::IoError("cannot open query journal at " + path_);
  }
  enabled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

std::string QueryJournal::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

void QueryJournal::set_sample_every(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  sample_every_ = n == 0 ? 1 : n;
  // Restart the sampling epoch: the next record always logs. Deciding
  // from the id instead (the old id % N != 1 test) could go silent for
  // an entire epoch when the rate changed mid-stream or ids restarted.
  sample_seq_ = 0;
}

void QueryJournal::set_max_bytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  max_bytes_ = bytes;
}

void QueryJournal::set_keep_files(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  keep_files_ = n;
}

uint64_t QueryJournal::keep_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keep_files_;
}

uint64_t QueryJournal::records_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_written_;
}

void QueryJournal::RotateLocked() {
  out_.close();
  uint64_t dropped = 0;
  if (keep_files_ == 0) {
    // No generations kept: the live file is simply discarded.
    if (std::remove(path_.c_str()) == 0) ++dropped;
  } else {
    // Shift PATH.(keep-1) .. PATH.1 down one generation, dropping the
    // file that falls off the end, then the live file becomes PATH.1.
    const std::string oldest =
        path_ + "." + std::to_string(keep_files_);
    if (std::remove(oldest.c_str()) == 0) ++dropped;
    for (uint64_t gen = keep_files_; gen > 1; --gen) {
      const std::string from = path_ + "." + std::to_string(gen - 1);
      const std::string to = path_ + "." + std::to_string(gen);
      std::rename(from.c_str(), to.c_str());
    }
    std::rename(path_.c_str(), (path_ + ".1").c_str());
  }
  out_.open(path_, std::ios::out | std::ios::trunc);
  bytes_written_ = 0;
  if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
    m->journal_rotations->Add();
    if (dropped > 0) m->journal_rotations_dropped->Add(dropped);
  }
}

void QueryJournal::Append(const QueryJournalRecord& record) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const uint64_t id = ++seq_;
  // The sampling decision comes from its own monotonic counter, not the
  // id: slot 0 of every epoch logs, so the first record after SetPath or
  // a rate change is always written.
  const uint64_t slot = sample_seq_++;
  if (sample_every_ > 1 && slot % sample_every_ != 0) return;
  const std::string line = RenderRecord(id, record) + "\n";
  // Failure -- injected ("journal/write") or real (closed/full sink) --
  // is counted and swallowed: the query's result is already computed
  // and must not depend on observability I/O.
  const bool injected = !FailPoints::Check("journal/write").ok();
  if (!injected && max_bytes_ > 0 &&
      bytes_written_ + line.size() > max_bytes_ && bytes_written_ > 0) {
    RotateLocked();
  }
  bool ok = !injected && out_.is_open();
  if (ok) {
    out_ << line;
    out_.flush();
    ok = static_cast<bool>(out_);
  }
  if (ok) {
    bytes_written_ += line.size();
    ++records_written_;
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->journal_records->Add();
    }
  } else {
    if (EngineMetrics* m = EngineMetrics::IfEnabled()) {
      m->journal_errors->Add();
    }
    // A sick stream would fail every future append; clear the error so
    // a transient condition (disk briefly full) can recover.
    out_.clear();
  }
}

}  // namespace fuzzydb
