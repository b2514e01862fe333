#include "server/session.h"

#include <cstdlib>
#include <sstream>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"

namespace fuzzydb {
namespace server {

namespace {

std::vector<std::string> Words(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream stream(line);
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

/// "64m" -> 64 MiB; bare numbers are bytes. Mirrors the fuzzydb_shell
/// --memory-budget flag syntax. Returns false on malformed input.
bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str()) return false;
  uint64_t multiplier = 1;
  if (*end != '\0') {
    if (end[1] != '\0') return false;
    switch (*end | 0x20) {
      case 'k':
        multiplier = 1024;
        break;
      case 'm':
        multiplier = 1024 * 1024;
        break;
      case 'g':
        multiplier = 1024ull * 1024 * 1024;
        break;
      default:
        return false;
    }
  }
  *out = static_cast<uint64_t>(value) * multiplier;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty() && *out >= 0;
}

bool ParseCount(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size() && !text.empty();
}

/// Wire status strings use the journal's UPPER_SNAKE convention
/// (RESOURCE_EXHAUSTED, not ResourceExhausted), so clients match one
/// vocabulary across frames, journals, and docs.
const char* WireStatusName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kAlreadyExists:
      return "ALREADY_EXISTS";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kParseError:
      return "PARSE_ERROR";
    case StatusCode::kBindError:
      return "BIND_ERROR";
    case StatusCode::kUnsupported:
      return "UNSUPPORTED";
    case StatusCode::kInternal:
      return "INTERNAL";
    case StatusCode::kCancelled:
      return "CANCELLED";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
  }
  return "FAILED";
}

}  // namespace

Session::Session(uint64_t id, const SessionDefaults& defaults,
                 uint64_t fair_share_budget, Catalog* shared_catalog,
                 wal::WalManager* wal)
    : id_(id), fair_share_budget_(fair_share_budget), options_(defaults) {
  shell_.set_quiet(true);
  shell_.set_result_sink(this);
  if (shared_catalog != nullptr) {
    shell_.AttachSharedDatabase(shared_catalog, wal);
  }
  ApplyOptions();
}

void Session::ApplyOptions() {
  shell_.set_cache_enabled(options_.cache);
  shell_.set_slow_query_ms(options_.slow_query_ms);
  shell_.set_timeout_ms(options_.timeout_ms);
  shell_.set_num_threads(options_.threads);
  // Fair-share admission: the session's budget never exceeds the
  // controller's per-query share, so one greedy session cannot claim
  // the whole process budget (0 = unconstrained on either side).
  uint64_t budget = options_.memory_budget;
  if (fair_share_budget_ > 0 &&
      (budget == 0 || budget > fair_share_budget_)) {
    budget = fair_share_budget_;
  }
  shell_.set_memory_budget(budget);
}

void Session::OnAnswer(const Relation& answer) {
  if (current_frame_ == nullptr) return;
  ReplyFrame& frame = *current_frame_;
  frame.has_answer = true;
  frame.answer_json.clear();
  AnswerWriter writer(&frame.answer_json);
  for (const Column& column : answer.schema().columns()) {
    writer.Column(column.name);
  }
  for (const Tuple& tuple : answer.tuples()) {
    writer.BeginRow();
    for (const Value& value : tuple.values()) {
      value.AppendTo(writer.BeginValue());
      writer.EndValue();
    }
  }
  writer.BeginDegrees();
  for (const Tuple& tuple : answer.tuples()) writer.Degree(tuple.degree());
  writer.Finish();
}

bool Session::ExecuteSet(const std::string& line, ReplyFrame* frame) {
  std::string stripped = line;
  // Tolerate a statement-style trailing ';'.
  while (!stripped.empty() &&
         (stripped.back() == ';' || stripped.back() == ' ' ||
          stripped.back() == '\t')) {
    stripped.pop_back();
  }
  const std::vector<std::string> words = Words(stripped);
  if (words.size() < 1 || !EqualsIgnoreCase(words[0], "SET")) return false;
  auto fail = [frame](const std::string& message) {
    frame->status = "INVALID_ARGUMENT";
    frame->error = message;
    return true;
  };
  if (words.size() != 3) {
    return fail(
        "usage: SET cache|slow_query_ms|timeout_ms|"
        "memory_budget|threads <value>");
  }
  const std::string key = ToLower(words[1]);
  const std::string& value = words[2];
  if (key == "cache") {
    if (EqualsIgnoreCase(value, "on")) {
      options_.cache = true;
    } else if (EqualsIgnoreCase(value, "off")) {
      options_.cache = false;
    } else {
      return fail("bad cache value (want on|off): " + value);
    }
  } else if (key == "slow_query_ms") {
    double ms = 0;
    if (!ParseDouble(value, &ms)) return fail("bad slow_query_ms: " + value);
    options_.slow_query_ms = ms;
  } else if (key == "timeout_ms") {
    double ms = 0;
    if (!ParseDouble(value, &ms)) return fail("bad timeout_ms: " + value);
    options_.timeout_ms = ms;
  } else if (key == "memory_budget") {
    uint64_t bytes = 0;
    if (!ParseByteSize(value, &bytes)) {
      return fail("bad memory_budget (want N[k|m|g]): " + value);
    }
    options_.memory_budget = bytes;
  } else if (key == "threads") {
    uint64_t threads = 0;
    if (!ParseCount(value, &threads)) return fail("bad threads: " + value);
    options_.threads = static_cast<size_t>(threads);
  } else {
    return fail("unknown session option: " + key);
  }
  ApplyOptions();
  frame->text = "-- set " + key + "=" + value + "\n";
  return true;
}

ReplyFrame Session::Execute(const std::string& line) {
  ReplyFrame frame;
  frame.session_id = id_;
  frame.seq = statements_.load(std::memory_order_relaxed) + 1;
  Stopwatch watch;
  if (!ExecuteSet(line, &frame)) {
    std::ostringstream out;
    shell_.clear_error();
    current_frame_ = &frame;
    const bool keep_going = shell_.FeedLine(line, out);
    current_frame_ = nullptr;
    frame.text = out.str();
    if (shell_.had_error()) {
      const Status& status = shell_.last_status();
      frame.status = status.ok() ? "FAILED" : WireStatusName(status.code());
      frame.error = status.ok() ? frame.text : status.ToString();
    }
    if (!keep_going) frame.goodbye = true;
  }
  frame.elapsed_ms = watch.ElapsedSeconds() * 1e3;
  if (frame.status != "OK") errors_.fetch_add(1, std::memory_order_relaxed);
  statements_.fetch_add(1, std::memory_order_relaxed);
  return frame;
}

}  // namespace server
}  // namespace fuzzydb
