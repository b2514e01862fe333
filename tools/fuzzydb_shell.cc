// The FuzzyDB interactive shell.
//
//   fuzzydb_shell                        interactive session
//   fuzzydb_shell < script.sql           batch execution
//   fuzzydb_shell -c "STMT; ..."         run statements, then exit
//   fuzzydb_shell --quiet                no banner/prompts (scripting)
//   fuzzydb_shell --trace-json=PATH      EXPLAIN ANALYZE also dumps a
//                                        Chrome trace_event JSON to PATH
//   fuzzydb_shell --metrics-json=PATH    dump the metrics registry as
//                                        JSON on exit ("-" = stdout)
//   fuzzydb_shell --metrics-prom=PATH    same, Prometheus text format
//   fuzzydb_shell --slow-query-ms=N      log queries >= N ms (.slowlog)
//   fuzzydb_shell --timeout-ms=N         per-query deadline (0 = none)
//   fuzzydb_shell --memory-budget=N[kmg] per-query memory budget
//   fuzzydb_shell --cache-mb=N           cross-query cache capacity in
//                                        MiB (0 = off, the default)
//   fuzzydb_shell --query-log=PATH       append one JSONL record per
//                                        query to PATH (the structured
//                                        query journal)
//   fuzzydb_shell --query-log-sample=N   journal every Nth query
//                                        (1 = all, the default)
//   fuzzydb_shell --query-log-keep=N     rotated journal generations to
//                                        keep as PATH.1..PATH.N
//                                        (default 3)
//   fuzzydb_shell --wal-dir=DIR          write-ahead durability: recover
//                                        the database in DIR, log every
//                                        mutation (docs/durability.md)
//   fuzzydb_shell --wal-fsync=MODE       always (default) | batch | off
//   fuzzydb_shell --explain-json         EXPLAIN ANALYZE also prints the
//                                        per-operator JSON summary
//                                        between marker lines
//
// With -c, the exit code is non-zero when any statement failed. Ctrl-C
// during an interactive query cancels that query (CANCELLED) instead of
// killing the shell; a second Ctrl-C while idle exits.
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "cache/cache_manager.h"
#include "obs/metrics.h"
#include "obs/query_journal.h"
#include "shell/shell.h"

namespace {

// Writes `text` to `path`, with "-" meaning stdout. Returns false (after
// printing to stderr) when the file cannot be opened.
bool WriteDump(const std::string& path, const std::string& text) {
  if (path == "-") {
    std::cout << text;
    return true;
  }
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  file << text;
  return true;
}

// Parses a byte size with an optional k/m/g suffix ("64m" = 64 MiB).
// Returns false on malformed input.
bool ParseByteSize(const std::string& text, uint64_t* bytes) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str()) return false;
  uint64_t multiplier = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': multiplier = 1ull << 10; break;
      case 'm': case 'M': multiplier = 1ull << 20; break;
      case 'g': case 'G': multiplier = 1ull << 30; break;
      default: return false;
    }
    if (*(end + 1) != '\0') return false;
  }
  *bytes = static_cast<uint64_t>(v) * multiplier;
  return true;
}

// SIGINT cancels the in-flight query cooperatively; when no query is
// running, fall back to the default disposition (terminate) so Ctrl-C
// at the prompt still exits.
extern "C" void HandleInterrupt(int) {
  if (!fuzzydb::Shell::CancelActiveQuery()) {
    std::signal(SIGINT, SIG_DFL);
    std::raise(SIGINT);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fuzzydb::Shell shell;
  std::string command;
  bool have_command = false;
  bool quiet = false;
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::string wal_dir;
  fuzzydb::wal::WalOptions wal_options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string kTraceFlag = "--trace-json=";
    const std::string kWalDirFlag = "--wal-dir=";
    const std::string kWalFsyncFlag = "--wal-fsync=";
    const std::string kMetricsJsonFlag = "--metrics-json=";
    const std::string kMetricsPromFlag = "--metrics-prom=";
    const std::string kSlowFlag = "--slow-query-ms=";
    const std::string kTimeoutFlag = "--timeout-ms=";
    const std::string kBudgetFlag = "--memory-budget=";
    const std::string kCacheFlag = "--cache-mb=";
    const std::string kQueryLogFlag = "--query-log=";
    const std::string kQueryLogSampleFlag = "--query-log-sample=";
    const std::string kQueryLogKeepFlag = "--query-log-keep=";
    if (arg.rfind(kTraceFlag, 0) == 0) {
      shell.set_trace_json_path(arg.substr(kTraceFlag.size()));
    } else if (arg.rfind(kWalDirFlag, 0) == 0) {
      wal_dir = arg.substr(kWalDirFlag.size());
      if (wal_dir.empty()) {
        std::cerr << "--wal-dir requires a directory\n";
        return 2;
      }
    } else if (arg.rfind(kWalFsyncFlag, 0) == 0) {
      auto mode =
          fuzzydb::wal::ParseFsyncMode(arg.substr(kWalFsyncFlag.size()));
      if (!mode.ok()) {
        std::cerr << mode.status().ToString() << "\n";
        return 2;
      }
      wal_options.fsync = *mode;
    } else if (arg.rfind(kMetricsJsonFlag, 0) == 0) {
      metrics_json_path = arg.substr(kMetricsJsonFlag.size());
    } else if (arg.rfind(kMetricsPromFlag, 0) == 0) {
      metrics_prom_path = arg.substr(kMetricsPromFlag.size());
    } else if (arg.rfind(kSlowFlag, 0) == 0) {
      shell.set_slow_query_ms(std::atof(arg.c_str() + kSlowFlag.size()));
    } else if (arg.rfind(kTimeoutFlag, 0) == 0) {
      shell.set_timeout_ms(std::atof(arg.c_str() + kTimeoutFlag.size()));
    } else if (arg.rfind(kBudgetFlag, 0) == 0) {
      uint64_t bytes = 0;
      if (!ParseByteSize(arg.substr(kBudgetFlag.size()), &bytes)) {
        std::cerr << "bad --memory-budget value (want N[k|m|g]): " << arg
                  << "\n";
        return 2;
      }
      shell.set_memory_budget(bytes);
    } else if (arg.rfind(kCacheFlag, 0) == 0) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long mb =
          std::strtoull(arg.c_str() + kCacheFlag.size(), &end, 10);
      if (errno != 0 || end == arg.c_str() + kCacheFlag.size() ||
          *end != '\0') {
        std::cerr << "bad --cache-mb value (want a number of MiB): " << arg
                  << "\n";
        return 2;
      }
      fuzzydb::CacheManager::Global().set_capacity_bytes(
          static_cast<uint64_t>(mb) << 20);
    } else if (arg.rfind(kQueryLogFlag, 0) == 0) {
      const fuzzydb::Status status = fuzzydb::QueryJournal::Global().SetPath(
          arg.substr(kQueryLogFlag.size()));
      if (!status.ok()) {
        std::cerr << status.ToString() << "\n";
        return 2;
      }
    } else if (arg.rfind(kQueryLogSampleFlag, 0) == 0) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long every = std::strtoull(
          arg.c_str() + kQueryLogSampleFlag.size(), &end, 10);
      if (errno != 0 || end == arg.c_str() + kQueryLogSampleFlag.size() ||
          *end != '\0') {
        std::cerr << "bad --query-log-sample value (want N >= 1): " << arg
                  << "\n";
        return 2;
      }
      fuzzydb::QueryJournal::Global().set_sample_every(
          static_cast<uint64_t>(every));
    } else if (arg.rfind(kQueryLogKeepFlag, 0) == 0) {
      char* end = nullptr;
      errno = 0;
      const unsigned long long keep = std::strtoull(
          arg.c_str() + kQueryLogKeepFlag.size(), &end, 10);
      if (errno != 0 || end == arg.c_str() + kQueryLogKeepFlag.size() ||
          *end != '\0') {
        std::cerr << "bad --query-log-keep value (want N >= 0): " << arg
                  << "\n";
        return 2;
      }
      fuzzydb::QueryJournal::Global().set_keep_files(
          static_cast<uint64_t>(keep));
    } else if (arg == "--explain-json") {
      shell.set_explain_json(true);
    } else if (arg == "--quiet" || arg == "-q") {
      quiet = true;
    } else if (arg == "-c") {
      if (i + 1 >= argc) {
        std::cerr << "-c requires an argument\n";
        return 2;
      }
      command = argv[++i];
      have_command = true;
    } else {
      std::cerr << "usage: fuzzydb_shell [-c \"STMT;\"] [--quiet]\n"
                   "    [--trace-json=PATH] [--metrics-json=PATH|-]\n"
                   "    [--metrics-prom=PATH|-] [--slow-query-ms=N]\n"
                   "    [--timeout-ms=N] [--memory-budget=N[k|m|g]]\n"
                   "    [--cache-mb=N]\n"
                   "    [--query-log=PATH] [--query-log-sample=N]\n"
                   "    [--query-log-keep=N] [--explain-json]\n"
                   "    [--wal-dir=DIR] [--wal-fsync=always|batch|off]\n";
      return 2;
    }
  }
  shell.set_quiet(quiet);
  if (!wal_dir.empty()) {
    const fuzzydb::Status status =
        shell.EnableWal(wal_dir, wal_options, std::cout);
    if (!status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 2;
    }
  }
  std::signal(SIGINT, HandleInterrupt);

  if (have_command) {
    // Statements passed with -c run as a non-interactive session; a
    // missing final ';' is forgiven.
    if (command.find(';') == std::string::npos) command += ';';
    std::istringstream in(command);
    shell.Run(in, std::cout, /*interactive=*/false);
  } else {
    const bool interactive = isatty(STDIN_FILENO) != 0;
    shell.Run(std::cin, std::cout, interactive);
  }

  int exit_code = 0;
  // -c is the scripting interface: surface statement failures in the
  // exit code. Interactive/batch sessions keep exit 0 so a session that
  // recovered from an error doesn't look failed.
  if (have_command && shell.had_error()) exit_code = 1;
  if (!metrics_json_path.empty() &&
      !WriteDump(metrics_json_path,
                 fuzzydb::MetricsRegistry::Global().ToJson() + "\n")) {
    exit_code = 1;
  }
  if (!metrics_prom_path.empty() &&
      !WriteDump(metrics_prom_path,
                 fuzzydb::MetricsRegistry::Global().ToPrometheusText())) {
    exit_code = 1;
  }
  return exit_code;
}
