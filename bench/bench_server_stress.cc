// Multi-session server stress: N concurrent TCP clients against the
// admission-controlled server, checked bit-identical to a serial shell
// baseline.
//
// Three measured configurations:
//
//   serial_baseline  the whole seeded workload through one Session on
//                    the calling thread -- the reference answers and the
//                    single-session cost.
//   served_4clients  4 concurrent TCP clients through a 4-worker server;
//                    every client runs the same workload, and every
//                    reply frame (status, text, columns, rows, degrees)
//                    must be BIT-IDENTICAL to the serial baseline --
//                    the bench aborts otherwise, so the report can only
//                    exist for answer-preserving concurrency.
//   overload_shed    4 clients racing one slow query into a 1-worker,
//                    depth-1 queue: at least one reply must shed as
//                    RESOURCE_EXHAUSTED and at least one must answer OK
//                    (admission control degrades, never hangs).
//
// Counters (ios, pairs) are engine-side and the server runs multiple
// sessions concurrently, so the report carries threads=4 and the
// regression gate holds wall/cpu times by ratio only.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"

namespace fuzzydb {
namespace bench {
namespace {

using server::ParseReplyFrame;
using server::RenderReplyFrame;
using server::ReplyFrame;
using server::Server;
using server::ServerConfig;
using server::Session;
using server::SessionDefaults;

// The seeded per-session workload (same shape as tools/stress_client.py
// and the server_test determinism matrix): DDL, inserts, then fuzzy
// selects including a nested type J query.
std::vector<std::string> Workload(size_t queries) {
  std::vector<std::string> lines = {
      "CREATE TABLE emp (name STRING, sal FUZZY, dept STRING);",
      "CREATE TABLE dept (dname STRING, budget FUZZY);",
  };
  for (int d = 0; d < 3; ++d) {
    lines.push_back("INSERT INTO dept VALUES ('d" + std::to_string(d) +
                    "', ABOUT(" + std::to_string(100 + 50 * d) + ", 25));");
  }
  for (int r = 0; r < 16; ++r) {
    lines.push_back("INSERT INTO emp VALUES ('e" + std::to_string(r) +
                    "', ABOUT(" + std::to_string(80 + 11 * r) + ", 15), 'd" +
                    std::to_string(r % 3) + "');");
  }
  uint32_t state = 0x9E3779B9u;
  for (size_t i = 0; i < queries; ++i) {
    state = state * 1103515245u + 12345u;
    const int threshold = 90 + static_cast<int>((state >> 8) % 120u);
    const int dept = static_cast<int>((state >> 4) % 3u);
    switch (state % 3u) {
      case 0:
        lines.push_back("SELECT name FROM emp WHERE sal > ABOUT(" +
                        std::to_string(threshold) +
                        ", 10) WITH D >= 0.5;");
        break;
      case 1:
        lines.push_back("SELECT name FROM emp WHERE sal > ABOUT(" +
                        std::to_string(threshold) + ", 10) AND dept = 'd" +
                        std::to_string(dept) + "' WITH D >= 0.3;");
        break;
      default:
        lines.push_back(
            "SELECT name FROM emp WHERE sal > ANY (SELECT budget FROM "
            "dept WHERE dname = 'd" +
            std::to_string(dept) + "') WITH D >= 0.3;");
    }
  }
  return lines;
}

/// A Session's frame as a client decodes it off the wire.
ReplyFrame Decoded(const ReplyFrame& frame) {
  ReplyFrame decoded;
  ParseReplyFrame(RenderReplyFrame(frame), &decoded);
  return decoded;
}

/// The answer-bearing fields that must match the serial baseline.
std::string NormalizeFrame(const ReplyFrame& frame) {
  std::string key = frame.status + "|" + frame.text + "|";
  for (const std::string& column : frame.columns) key += column + ",";
  key += "|";
  for (size_t i = 0; i < frame.rows.size(); ++i) {
    for (const std::string& value : frame.rows[i]) key += value + ",";
    char degree[32];
    std::snprintf(degree, sizeof(degree), "%.17g", frame.degrees[i]);
    key += "@";
    key += degree;
    key += ";";
  }
  return key;
}

// Minimal blocking line-protocol client.
class Client {
 public:
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool Roundtrip(const std::string& line, ReplyFrame* frame) {
    const std::string data = line + "\n";
    size_t written = 0;
    while (written < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + written,
                               data.size() - written, MSG_NOSIGNAL);
      if (n <= 0) return false;
      written += static_cast<size_t>(n);
    }
    while (true) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        const std::string reply = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return ParseReplyFrame(reply, frame);
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

double WallNow() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "bench_server_stress: %s\n", message.c_str());
  return 1;
}

}  // namespace

int Run(int argc, char** argv) {
  PrintHeader("Multi-session server stress",
              "server mode: concurrent clients, admission control");
  const size_t kQueries = SmokeRows(400, 24);
  constexpr int kClients = 4;
  const std::vector<std::string> workload = Workload(kQueries);
  BenchReport report("server_stress", /*threads=*/kClients);

  // ---- serial_baseline ------------------------------------------------
  std::vector<std::string> baseline;
  {
    const double wall0 = WallNow();
    const double cpu0 = CpuNow();
    Session session(1, SessionDefaults{}, 0);
    baseline.reserve(workload.size());
    for (const std::string& line : workload) {
      const ReplyFrame frame = session.Execute(line);
      if (frame.status != "OK") {
        return Fail("baseline statement failed: " + frame.error);
      }
      baseline.push_back(NormalizeFrame(Decoded(frame)));
    }
    ExecStats stats;
    stats.total_seconds = WallNow() - wall0;
    stats.cpu_seconds = CpuNow() - cpu0;
    report.Add("serial_baseline", stats);
    std::printf("  serial_baseline   %s  (%zu statements)\n",
                Seconds(stats.total_seconds).c_str(), workload.size());
  }

  // ---- served_4clients ------------------------------------------------
  {
    ServerConfig config;
    config.workers = 4;
    config.queue_depth = 64;
    Server server(config);
    if (!server.Start().ok()) return Fail("server failed to start");

    const double wall0 = WallNow();
    const double cpu0 = CpuNow();
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&errors, &workload, &baseline, &server, c] {
        Client client;
        if (!client.Connect(server.port())) {
          errors[c] = "connect failed";
          return;
        }
        for (size_t i = 0; i < workload.size(); ++i) {
          ReplyFrame frame;
          if (!client.Roundtrip(workload[i], &frame)) {
            errors[c] = "protocol error at line " + std::to_string(i);
            return;
          }
          // Bit-identical or bust: a served answer that differs from
          // the serial shell is a correctness bug, not a perf result.
          if (NormalizeFrame(frame) != baseline[i]) {
            errors[c] = "answer mismatch at line " + std::to_string(i) +
                        " (" + workload[i] + ")\n  served: " +
                        NormalizeFrame(frame) + "\n  serial: " +
                        baseline[i];
            return;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int c = 0; c < kClients; ++c) {
      if (!errors[c].empty()) {
        return Fail("client " + std::to_string(c) + ": " + errors[c]);
      }
    }
    ExecStats stats;
    stats.total_seconds = WallNow() - wall0;
    stats.cpu_seconds = CpuNow() - cpu0;
    report.Add("served_4clients", stats);
    server.Stop();
    std::printf("  served_4clients   %s  (4 x %zu statements, "
                "bit-identical to serial)\n",
                Seconds(stats.total_seconds).c_str(), workload.size());
  }

  // ---- overload_shed --------------------------------------------------
  {
    ServerConfig config;
    config.workers = 1;
    config.queue_depth = 1;
    Server server(config);
    if (!server.Start().ok()) return Fail("server failed to start");

    const double wall0 = WallNow();
    const double cpu0 = CpuNow();
    // Even in smoke mode the racing query must run long enough (a few
    // hundred ms) that all four clients overlap on the single worker.
    const size_t gen_rows = SmokeRows(5000, 2500);
    const std::string gen = ".gen typej 7 " + std::to_string(gen_rows) +
                            " " + std::to_string(gen_rows) + " " +
                            std::to_string(gen_rows);
    // Setup first, one client at a time (retrying shed replies), so the
    // slow queries below race the single worker simultaneously.
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>());
      if (!clients.back()->Connect(server.port())) {
        return Fail("overload client connect failed");
      }
      ReplyFrame frame;
      for (int attempt = 0; attempt < 2000; ++attempt) {
        if (!clients.back()->Roundtrip(gen, &frame)) {
          return Fail("overload client protocol error during setup");
        }
        if (frame.status != "RESOURCE_EXHAUSTED") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (frame.status != "OK") {
        return Fail("overload client setup failed: " + frame.error);
      }
    }
    std::vector<std::string> statuses(kClients);
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&statuses, &clients, c] {
        ReplyFrame frame;
        if (!clients[c]->Roundtrip(
                "SELECT R.X FROM R WHERE R.Y IN "
                "(SELECT S.Z FROM S WHERE S.V = R.U);",
                &frame)) {
          statuses[c] = "PROTOCOL_ERROR";
          return;
        }
        statuses[c] = frame.status;
      });
    }
    for (std::thread& thread : threads) thread.join();
    int ok = 0;
    int shed = 0;
    for (int c = 0; c < kClients; ++c) {
      if (statuses[c] == "OK") {
        ++ok;
      } else if (statuses[c] == "RESOURCE_EXHAUSTED") {
        ++shed;
      } else {
        return Fail("client " + std::to_string(c) +
                    " unexpected outcome: " + statuses[c]);
      }
    }
    if (ok < 1) return Fail("no query was admitted under overload");
    if (shed < 1) return Fail("overload never shed RESOURCE_EXHAUSTED");
    ExecStats stats;
    stats.total_seconds = WallNow() - wall0;
    stats.cpu_seconds = CpuNow() - cpu0;
    report.Add("overload_shed", stats);
    server.Stop();
    std::printf("  overload_shed     %s  (%d admitted, %d shed)\n",
                Seconds(stats.total_seconds).c_str(), ok, shed);
  }

  const std::string json_out = JsonOutPath(argc, argv);
  if (!json_out.empty() && !report.Write(json_out)) return 1;
  return 0;
}

}  // namespace bench
}  // namespace fuzzydb

int main(int argc, char** argv) {
  return fuzzydb::bench::Run(argc, argv);
}
