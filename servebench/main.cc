// servebench: FuzzyDB's served benchmark.
//
//   servebench --server <fuzzydb_server> --workdir <dir>
//              --workload olap_nested|oltp_small|mixed_durable
//              --seed N --seconds S --trace 0|1
//              [--scale F] [--corrupt-digest] [--drop-acked-key]
//
// Starts the real fuzzydb_server as a child process and drives it over
// TCP from this one process in a closed loop on one connection: the
// next request goes out only after the previous reply has been read.
// The server runs one worker and the session SET threads 1, so at most
// one thread of the benchmark is runnable at a time and the figures
// measure the program, not how a shared host schedules competing
// threads. The seed makes every statement; the server receives only
// those.
//
// One run:
//   1. probes the machine (nproc, spin-probe effective cores, degree
//      evaluations per second), then keeps itself and the server on
//      one CPU;
//   2. sets the server up 3 to 301 times and keeps the last;
//   3. computes reference answers on an embedded server::Session and
//      checks every template under `.engine naive` at reduced size
//      (olap_nested, oltp_small), outside the timed window;
//   4. measures the window: olap_nested and oltp_small for --seconds,
//      mixed_durable for a statement count derived from --seconds,
//      reading the server's CPU clock about every half second;
//   5. measures restarts (kill -9, then relaunch until the first SELECT
//      is answered; mixed_durable also checks that every acknowledged
//      key survived), then sets the server up 3 to 301 times more
//      (setup_s is the median of both batches);
//   6. with --trace 1, replays the first statements in-process with a
//      span around each layer call (traced.h).
//
// Output: a "servebench report" line with everything measured, then, as
// the last line, {"correct", "attempted", "failed", "metrics"} holding
// the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status is non-zero when an answer or durability
// check fails.
//
// --corrupt-digest and --drop-acked-key inject a fault from the harness,
// never from the program: a flipped reference digest, or the WAL's last
// record torn off before the restart, as a lost write would be. The
// tests use them to show the checks fire.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "machine.h"
#include "served.h"
#include "server/session.h"
#include "server/wire.h"
#include "traced.h"
#include "workloads.h"

namespace servebench {
namespace {

namespace fs = std::filesystem;
using fuzzydb::server::ReplyFrame;

// Set-up is timed in two batches, one before the window and one after
// the restarts, so its median samples the host across the run and not
// only in its first second. A batch repeats set-up at least kMinSetups
// times, and up to kMaxSetups while it has taken under
// kSetupBudgetSeconds, so a quick set-up still gets a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 301;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr int kRestarts = 9;
// The window reads the server's CPU clock about this often.
constexpr double kCpuMarkSeconds = 0.5;

struct Options {
  std::string server;
  std::string workdir;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  bool corrupt_digest = false;
  bool drop_acked_key = false;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

/// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// The q-quantile of `values` (in completion order) as the median of
/// the quantiles of up to five consecutive groups, each large enough to
/// have at least ten samples beyond the quantile. A burst of load from
/// another tenant of the host moves one group's figure, not the report.
double GroupedPercentile(const std::vector<double>& values, double q) {
  const size_t groups = std::clamp<size_t>(
      static_cast<size_t>(static_cast<double>(values.size()) * (1 - q) / 10),
      1, 5);
  std::vector<double> figures;
  for (size_t g = 0; g < groups; ++g) {
    const size_t begin = values.size() * g / groups;
    const size_t end = values.size() * (g + 1) / groups;
    figures.push_back(Percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() + static_cast<std::ptrdiff_t>(end)),
        q));
  }
  std::sort(figures.begin(), figures.end());
  return groups % 2 == 1 ? figures[groups / 2]
                         : (figures[groups / 2 - 1] + figures[groups / 2]) / 2;
}

/// One measured request.
struct Sample {
  double done = 0;  // completion time (seconds, steady clock)
  double rt_ms = 0;
  double exec_ms = 0;
  double queue_ms = 0;
  double bytes = 0;
  bool write = false;
  bool failed = false;
  int pool_index = -1;
};

/// A reading of the server's CPU clock during the window.
struct CpuMark {
  double time = 0;  // steady clock, seconds
  double cpu_ms = 0;
  size_t statements = 0;  // requests completed by then
};

/// Server CPU per statement as the median over up to five consecutive
/// groups of the window's CPU marks.
double GroupedCpuPerStatement(const std::vector<CpuMark>& marks) {
  const size_t spans = marks.size() - 1;
  const size_t groups = std::clamp<size_t>(spans, 1, 5);
  std::vector<double> figures;
  for (size_t g = 0; g < groups; ++g) {
    const CpuMark& begin = marks[spans * g / groups];
    const CpuMark& end = marks[spans * (g + 1) / groups];
    figures.push_back((end.cpu_ms - begin.cpu_ms) /
                      static_cast<double>(std::max<size_t>(
                          1, end.statements - begin.statements)));
  }
  return Median(figures);
}

/// Keeps this process, and the server it starts, on one of the CPUs it
/// may use. The closed loop has one runnable thread at a time, so one
/// CPU serves it, and every hand-off between client, connection thread
/// and worker stays a local wake-up instead of one whose cost depends
/// on where the scheduler last put each thread.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
      return;
    }
  }
}

/// `name value` lines of SHOW METRICS.
std::map<std::string, double> ParseMetricsText(const std::string& text) {
  std::map<std::string, double> series;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    if (space == std::string::npos || line.rfind("--", 0) == 0) continue;
    series[line.substr(0, space)] =
        std::strtod(line.c_str() + space + 1, nullptr);
  }
  return series;
}

struct Failures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool wrong = false;  // an answer or durability check failed
  std::vector<std::string> notes;

  void Fail(const std::string& note, bool is_wrong = false) {
    ++failed;
    wrong = wrong || is_wrong;
    if (notes.size() < 8) notes.push_back(note);
  }
};

/// A running server and the benchmark's connection to it.
struct Served {
  ServerProcess process;
  Connection connection;
};

bool Ask(Connection& connection, const std::string& line, ReplyFrame* frame,
         std::string* error) {
  std::string reply;
  if (!connection.Roundtrip(line, &reply) ||
      !fuzzydb::server::ParseReplyFrame(reply, frame)) {
    *error = "no reply to '" + line + "'";
    return false;
  }
  if (frame->status != "OK") {
    *error = "'" + line + "' failed: " + frame->status + " " + frame->error;
    return false;
  }
  return true;
}

std::vector<std::string> ServerFlags(const Workload& workload,
                                     const std::string& wal_dir) {
  std::vector<std::string> flags = workload.server_flags;
  if (workload.durable) flags.push_back("--wal-dir=" + wal_dir);
  return flags;
}

/// Launches the server, connects and loads the session; returns the
/// seconds from launch until the session is ready, or a negative value.
double SetUp(const Options& options, const Workload& workload,
             const std::string& wal_dir, Served* served, std::string* error) {
  const double start = Now();
  if (!served->process.Start(options.server, ServerFlags(workload, wal_dir),
                             error)) {
    return -1;
  }
  if (!served->connection.Connect(served->process.port())) {
    *error = "cannot connect to the server";
    return -1;
  }
  ReplyFrame frame;
  for (const std::string& line : workload.load) {
    if (!Ask(served->connection, line, &frame, error)) return -1;
  }
  return Now() - start;
}

/// Reference answers: each pool statement on an embedded Session loaded
/// the same way, as answer digests of its rendered reply frame.
bool ReferenceDigests(const Workload& workload, std::vector<uint64_t>* digests,
                      std::string* error) {
  fuzzydb::server::SessionDefaults defaults;
  defaults.threads = 1;
  fuzzydb::server::Session session(1, defaults, 0);
  for (const std::string& line : workload.load) {
    if (session.Execute(line).status != "OK") {
      *error = "reference load failed: " + line;
      return false;
    }
  }
  for (const std::string& statement : workload.pool) {
    const ReplyFrame frame = session.Execute(statement);
    if (frame.status != "OK") {
      *error = "reference failed: " + statement + ": " + frame.error;
      return false;
    }
    digests->push_back(AnswerDigest(fuzzydb::server::RenderReplyFrame(frame)));
  }
  return true;
}

/// Every pool statement under `.engine naive` against the unnested
/// engine, on the reduced load.
void NaiveCheck(const Workload& workload, Failures* failures) {
  const std::vector<std::string>& load =
      workload.naive_load.empty() ? workload.load : workload.naive_load;
  fuzzydb::server::SessionDefaults defaults;
  defaults.threads = 1;
  fuzzydb::server::Session unnested(1, defaults, 0);
  fuzzydb::server::Session naive(2, defaults, 0);
  naive.Execute(".engine naive");
  for (const std::string& line : load) {
    unnested.Execute(line);
    naive.Execute(line);
  }
  for (size_t i = 0; i < workload.pool.size(); ++i) {
    const ReplyFrame a = unnested.Execute(workload.pool[i]);
    const ReplyFrame b = naive.Execute(workload.pool[i]);
    ++failures->attempted;
    const uint64_t da = AnswerDigest(fuzzydb::server::RenderReplyFrame(a));
    const uint64_t db = AnswerDigest(fuzzydb::server::RenderReplyFrame(b));
    if (a.status != "OK" || b.status != "OK" || da != db || da == 0) {
      failures->Fail("naive != unnested: " + workload.pool[i], true);
    }
  }
}

/// The measured window: one closed loop on the benchmark's connection.
struct Window {
  std::vector<Sample> samples;
  std::vector<std::string> acked_keys;
  std::vector<CpuMark> cpu;  // about every kCpuMarkSeconds
  double start = 0;  // steady clock, seconds
  double seconds = 0;
  double client_cpu_ms = 0;
};

void RunWindow(const Options& options, const Workload& workload,
               const std::vector<uint64_t>& reference, Served* served,
               Window* window, Failures* failures) {
  RequestStream stream(workload);
  Request request;
  std::string reply;
  ReplySummary summary;
  const double client_cpu = ProcessCpuMs();
  const double start = Now();
  const double deadline = start + options.seconds;
  window->cpu.push_back({start, served->process.CpuMs(), 0});
  double now = start;
  while ((workload.stream_statements > 0 || now < deadline) &&
         stream.Next(&request)) {
    ++failures->attempted;
    const double sent = Now();
    if (!served->connection.Roundtrip(request.line, &reply)) {
      failures->Fail("transport error");
      break;
    }
    now = Now();
    Sample sample;
    sample.done = now;
    sample.rt_ms = (now - sent) * 1e3;
    sample.write = request.write;
    sample.pool_index = request.pool_index;
    sample.bytes = static_cast<double>(reply.size());
    if (!SummarizeReply(reply, &summary) || !summary.ok) {
      sample.failed = true;
      failures->Fail("not OK: " + request.line + " -> " + reply.substr(0, 200));
    } else if (request.write) {
      window->acked_keys.push_back(request.key);
    } else if (!reference.empty() &&
               summary.answer_digest !=
                   reference[static_cast<size_t>(request.pool_index)]) {
      sample.failed = true;
      failures->Fail(
          "answer differs from the embedded Session: " + request.line, true);
    }
    sample.exec_ms = summary.elapsed_ms;
    sample.queue_ms = summary.queue_wait_ms;
    window->samples.push_back(sample);
    // The server is idle between requests, so a reading here splits its
    // CPU time exactly between the requests before and after it.
    if (now - window->cpu.back().time >= kCpuMarkSeconds) {
      window->cpu.push_back(
          {now, served->process.CpuMs(), window->samples.size()});
    }
  }
  if (window->cpu.back().statements < window->samples.size()) {
    window->cpu.push_back(
        {now, served->process.CpuMs(), window->samples.size()});
  }
  window->start = start;
  window->seconds = now - start;
  window->client_cpu_ms = ProcessCpuMs() - client_cpu;
}

/// Tears the last record off the newest WAL segment, as a lost write
/// would (the --drop-acked-key fault).
bool TearLastWalRecord(const std::string& wal_dir) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(wal_dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) == 0 &&
        name > fs::path(newest).filename().string()) {
      newest = entry.path().string();
    }
  }
  if (newest.empty() || fs::file_size(newest) == 0) return false;
  fs::resize_file(newest, fs::file_size(newest) - 1);
  return true;
}

/// Every acknowledged key must be readable after the crash.
void DurabilityCheck(Connection& connection,
                     const std::vector<std::string>& keys,
                     Failures* failures) {
  ReplyFrame frame;
  std::string error;
  ++failures->attempted;
  if (!Ask(connection, "SELECT S.K FROM S;", &frame, &error)) {
    failures->Fail("durability read failed: " + error, true);
    return;
  }
  std::set<std::string> present;
  for (const auto& row : frame.rows) {
    if (!row.empty()) present.insert(row[0]);
  }
  size_t missing = 0;
  for (const std::string& key : keys) {
    if (present.count(key) == 0 && present.count("'" + key + "'") == 0) {
      ++missing;
    }
  }
  if (missing > 0) {
    failures->Fail(std::to_string(missing) + " of " +
                       std::to_string(keys.size()) +
                       " acknowledged keys missing after restart",
                   true);
  }
}

/// kill -9, relaunch, and time until the first SELECT is answered. A
/// durable server recovers its WAL; an in-memory one has lost its data,
/// so its first session reloads before the SELECT.
double Restart(const Options& options, const Workload& workload,
               const std::string& wal_dir, Served* served,
               Failures* failures, bool tear_wal, std::string* error) {
  served->connection.Close();
  served->process.Kill();
  if (tear_wal && !TearLastWalRecord(wal_dir)) {
    *error = "no WAL segment to tear";
    return -1;
  }
  const double start = Now();
  if (!served->process.Start(options.server, ServerFlags(workload, wal_dir),
                             error)) {
    return -1;
  }
  Connection& connection = served->connection;
  if (!connection.Connect(served->process.port())) {
    *error = "cannot reconnect";
    return -1;
  }
  ReplyFrame frame;
  for (const std::string& line : workload.load) {
    const bool reload = !workload.durable || line.rfind("SET ", 0) == 0;
    if (reload && !Ask(connection, line, &frame, error)) return -1;
  }
  ++failures->attempted;
  if (!Ask(connection, workload.probe_select, &frame, error)) {
    failures->Fail("first SELECT after restart failed");
    return -1;
  }
  return Now() - start;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-digest") {
      options->corrupt_digest = true;
    } else if (arg == "--drop-acked-key") {
      options->drop_acked_key = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--server") {
      options->server = argv[++i];
    } else if (arg == "--workdir") {
      options->workdir = argv[++i];
    } else if (arg == "--workload") {
      options->workload = argv[++i];
    } else if (arg == "--seed") {
      options->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      options->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--scale") {
      options->scale = std::strtod(argv[++i], nullptr);
    } else {
      return false;
    }
  }
  return !options->server.empty() && !options->workdir.empty() &&
         options->seconds > 0 && options->scale > 0;
}

int Run(const Options& options) {
  Workload workload;
  if (!MakeWorkload(options.workload, options.seed, options.seconds,
                    options.scale, &workload)) {
    std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  // WAL directories of this run; removed however the run ends.
  struct RunDir {
    std::string path;
    ~RunDir() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } run{options.workdir + "/run_" + std::to_string(::getpid())};
  const std::string& run_dir = run.path;
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  std::string error;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "servebench: %s\n", what.c_str());
    return 1;
  };

  const Machine machine = ProbeMachine();
  PinToOneCpu();

  // A batch of set-ups; the last server stays up.
  std::vector<double> setups;
  std::string wal_dir;
  Served served;
  const auto set_up_batch = [&] {
    double total = 0;
    for (int k = 0;
         k < kMaxSetups && (k < kMinSetups || total < kSetupBudgetSeconds);
         ++k) {
      served.connection.Close();
      served.process.Kill();
      if (!wal_dir.empty()) fs::remove_all(wal_dir);
      wal_dir = run_dir + "/wal_" + std::to_string(setups.size());
      const double seconds = SetUp(options, workload, wal_dir, &served, &error);
      if (seconds < 0) return false;
      setups.push_back(seconds);
      total += seconds;
    }
    return true;
  };
  if (!set_up_batch()) return fail("set-up failed: " + error);

  Failures failures;
  std::vector<uint64_t> reference;
  if (!workload.durable) {
    if (!ReferenceDigests(workload, &reference, &error)) return fail(error);
    if (options.corrupt_digest) {
      // Corrupt the reference of the first statement the window sends.
      RequestStream stream(workload);
      Request first;
      stream.Next(&first);
      reference[static_cast<size_t>(first.pool_index)] ^= 1;
    }
    NaiveCheck(workload, &failures);
  }

  ReplyFrame frame;
  if (!Ask(served.connection, "SHOW METRICS;", &frame, &error)) {
    return fail(error);
  }
  const auto before = ParseMetricsText(frame.text);
  Window window;
  RunWindow(options, workload, reference, &served, &window, &failures);
  if (!Ask(served.connection, "SHOW METRICS;", &frame, &error)) {
    return fail("cannot read server metrics: " + error);
  }
  auto after = ParseMetricsText(frame.text);
  const double peak_rss_mb = served.process.PeakRssMb();
  const auto delta = [&](const std::string& name) {
    const auto it = before.find(name);
    return after[name] - (it == before.end() ? 0.0 : it->second);
  };

  // Completion order, so grouped percentiles and throughput slices
  // follow time.
  std::sort(window.samples.begin(), window.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done < b.done; });
  std::vector<double> reads, writes, exec, queue, transport, bytes;
  std::map<int, double> template_ms;
  double ok_statements = 0;
  // Throughput: the median over five equal slices of the window.
  constexpr int kSlices = 5;
  double slice_ok[kSlices] = {};
  for (const Sample& s : window.samples) {
    if (s.failed) continue;
    ++ok_statements;
    const int slice = static_cast<int>((s.done - window.start) /
                                       window.seconds * kSlices);
    ++slice_ok[std::clamp(slice, 0, kSlices - 1)];
    (s.write ? writes : reads).push_back(s.rt_ms);
    exec.push_back(s.exec_ms);
    queue.push_back(s.queue_ms);
    transport.push_back(std::max(0.0, s.rt_ms - s.exec_ms - s.queue_ms));
    bytes.push_back(s.bytes);
    if (!s.write) {
      template_ms[workload.pool_template[static_cast<size_t>(s.pool_index)]] +=
          s.exec_ms;
    }
  }
  const double window_writes = static_cast<double>(writes.size());

  std::vector<double> restarts;
  const int restart_count = options.scale < 1 ? 2 : kRestarts;
  for (int r = 0; r < restart_count; ++r) {
    const double seconds =
        Restart(options, workload, wal_dir, &served, &failures,
                r == 0 && options.drop_acked_key, &error);
    if (seconds < 0) return fail("restart failed: " + error);
    restarts.push_back(seconds);
    if (r == 0 && workload.durable) {
      std::vector<std::string> keys = workload.loaded_keys;
      keys.insert(keys.end(), window.acked_keys.begin(),
                  window.acked_keys.end());
      DurabilityCheck(served.connection, keys, &failures);
    }
  }
  if (!set_up_batch()) return fail("set-up failed: " + error);
  served.connection.Close();
  served.process.Kill();

  const double stmts = std::max(1.0, ok_statements);
  std::vector<double> slice_rates;
  for (double ok : slice_ok) {
    slice_rates.push_back(ok * kSlices / window.seconds);
  }
  const double throughput = Median(slice_rates);
  std::vector<Metric> end_to_end = {
      {"read_p50_ms", "ms", GroupedPercentile(reads, 0.5)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
      {"setup_s", "s", Median(setups)},
  };

  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double hits = delta("fuzzydb_cache_hits_total");
  const double misses = delta("fuzzydb_cache_misses_total");
  std::vector<Metric> per_layer = {
      // End-to-end figures reported but not gated: tails follow host
      // preemption and fsync, restarts follow process start-up, only
      // mixed_durable writes, and server CPU time follows the host's
      // drifting speed more than read latency does.
      {"throughput_sps", "1/s", throughput},
      {"read_p99_ms", "ms", GroupedPercentile(reads, 0.99)},
      {"write_p50_ms", "ms", GroupedPercentile(writes, 0.5)},
      {"write_p99_ms", "ms", GroupedPercentile(writes, 0.99)},
      {"restart_s", "s", Median(restarts)},
      {"server_cpu_ms_per_stmt", "ms", GroupedCpuPerStatement(window.cpu)},
      {"server.queue_wait_ms_p50", "ms", Median(queue)},
      {"server.queue_wait_ms_p99", "ms", Percentile(queue, 0.99)},
      {"server.exec_ms_p50", "ms", Median(exec)},
      {"server.transport_ms_p50", "ms", Median(transport)},
      {"server.reply_bytes_p50", "bytes", Median(bytes)},
      {"server.shed", "count", delta("fuzzydb_server_shed_total")},
  };
  for (const char* phase : {"plan", "filter", "sort", "window", "join", "emit"}) {
    per_layer.push_back(
        {std::string("engine.phase.") + phase + "_ms_per_stmt", "ms",
         delta(std::string("fuzzydb_phase_seconds_total{phase=\"") + phase +
               "\"}") *
             1e3 / stmts});
  }
  per_layer.insert(
      per_layer.end(),
      {{"engine.unnested_ratio", "ratio",
        1.0 - ratio(delta("fuzzydb_queries_naive_fallback_total"),
                    delta("fuzzydb_queries_total"))},
       {"engine.merge_window_p50", "count",
        after["fuzzydb_merge_window_length_p50"]},
       {"stats.builds_per_stmt", "count/stmt",
        delta("fuzzydb_planner_stats_builds_total") / stmts},
       {"cache.hit_ratio", "ratio", ratio(hits, hits + misses)},
       {"cache.evictions", "count", delta("fuzzydb_cache_evictions_total")},
       {"cache.bytes", "bytes", after["fuzzydb_cache_bytes"]},
       {"wal.appends", "count", delta("fuzzydb_wal_appends_total")},
       {"wal.fsyncs_per_write", "count/write",
        ratio(delta("fuzzydb_wal_fsyncs_total"), window_writes)},
       {"wal.bytes_per_row", "bytes",
        ratio(delta("fuzzydb_wal_append_bytes_total"),
              delta("fuzzydb_wal_appends_total"))},
       {"client.cpu_ms_per_stmt", "ms", window.client_cpu_ms / stmts},
       {"machine.nproc", "count", static_cast<double>(machine.nproc)},
       {"machine.effective_cores", "count", machine.effective_cores},
       {"machine.degree_evals_per_s", "1/s", machine.degree_evals_per_s}});

  if (options.trace) {
    std::map<std::string, double> traced;
    const size_t statements =
        workload.name == "olap_nested" ? 40 : (workload.durable ? 700 : 400);
    const std::string trace_dir = options.workdir + "/traces";
    fs::create_directories(trace_dir);
    const std::string trace_path = trace_dir + "/" + workload.name + "_seed" +
                                   std::to_string(options.seed) + ".json";
    if (!RunTraced(workload,
                   std::max<size_t>(10, static_cast<size_t>(statements *
                                                            options.scale)),
                   run_dir, trace_path, &traced, &error)) {
      return fail("traced run failed: " + error);
    }
    for (const auto& [name, value] : traced) {
      const bool ms = name.size() > 3 && name.substr(name.size() - 3) == "_ms";
      const bool us = name.size() > 3 && name.substr(name.size() - 3) == "_us";
      const bool share = name.rfind("trace.", 0) == 0;
      per_layer.push_back(
          {name, ms ? "ms" : us ? "us" : share ? "ratio" : "count/stmt", value});
    }
  }

  // The report line: everything measured, the machine and the sample
  // sizes, so a later run can tell a change of host from a change of
  // code.
  std::string shares = "{";
  double total_template_ms = 0;
  for (const auto& [t, ms] : template_ms) total_template_ms += ms;
  for (const auto& [t, ms] : template_ms) {
    if (shares.size() > 1) shares += ", ";
    shares += "\"" + workload.templates[static_cast<size_t>(t)] +
              "\": " + JsonNumber(ratio(ms, total_template_ms));
  }
  shares += "}";
  std::string notes = "[";
  for (size_t i = 0; i < failures.notes.size(); ++i) {
    notes += (i > 0 ? ", \"" : "\"") +
             fuzzydb::server::JsonEscape(failures.notes[i]) + "\"";
  }
  notes += "]";
  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), per_layer.begin(), per_layer.end());
  std::printf(
      "servebench report: {\"workload\": \"%s\", \"seed\": %llu, "
      "\"machine\": {\"nproc\": %d, \"effective_cores\": %s, "
      "\"degree_evals_per_s\": %s}, \"window_s\": %s, \"reads\": %zu, "
      "\"writes\": %zu, \"read_p99_tail\": %zu, \"write_p99_tail\": %zu, "
      "\"template_exec_share\": %s, \"setup_s_samples\": %s, "
      "\"restart_s_samples\": %s, \"failures\": %s, \"metrics\": %s}\n",
      workload.name.c_str(), static_cast<unsigned long long>(options.seed),
      machine.nproc, JsonNumber(machine.effective_cores).c_str(),
      JsonNumber(machine.degree_evals_per_s).c_str(),
      JsonNumber(window.seconds).c_str(), reads.size(), writes.size(),
      reads.size() / 100, writes.size() / 100, shares.c_str(),
      JsonArray(setups).c_str(), JsonArray(restarts).c_str(), notes.c_str(),
      MetricsJson(all).c_str());

  const bool correct = !failures.wrong && failures.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, failures.attempted)),
      static_cast<unsigned long long>(failures.failed),
      MetricsJson(options.trace ? per_layer : end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Options options;
  if (!servebench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: servebench --server PATH --workdir DIR --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--scale F] "
                 "[--corrupt-digest] [--drop-acked-key]\n");
    return 2;
  }
  return servebench::Run(options);
}
