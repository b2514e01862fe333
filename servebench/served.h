// The served side of the benchmark: a fuzzydb_server child process and
// blocking line-protocol connections to it.
#ifndef SERVEBENCH_SERVED_H_
#define SERVEBENCH_SERVED_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/// One fuzzydb_server child. The destructor kills and reaps it, and the
/// child is also killed if this process dies first.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary --port=0 <flags>` and waits for its "listening on"
  /// line. Returns false (with `*error` set) when it does not come up.
  bool Start(const std::string& binary, const std::vector<std::string>& flags,
             std::string* error);

  /// SIGKILL, then waits for the process to end. Idempotent.
  void Kill();

  int port() const { return port_; }

  /// User + system CPU the process has used so far, in milliseconds.
  double CpuMs() const;
  /// Peak resident set (VmHWM) in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// A blocking connection: one request line out, one reply line back.
class Connection {
 public:
  Connection() = default;
  ~Connection() { Close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool Connect(int port);
  void Close();

  /// Sends `line` and reads the reply line (without its newline) into
  /// `*reply`. False on a transport error.
  bool Roundtrip(const std::string& line, std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the last reply
};

/// The fields of a reply line the measured loop needs, read without a
/// full parse: the engine's and the queue's times, and the answer part
/// (columns, rows, degrees) that the answer digest covers.
struct ReplySummary {
  bool ok = false;           // "status":"OK"
  double elapsed_ms = 0.0;
  double queue_wait_ms = 0.0;
  uint64_t answer_digest = 0;  // 0 when the frame carries no answer
};

bool SummarizeReply(const std::string& line, ReplySummary* summary);

/// FNV-1a over the answer part of a rendered reply frame: identical
/// columns, rendered rows and round-trip degrees give identical digests.
uint64_t AnswerDigest(const std::string& frame_line);

}  // namespace servebench

#endif  // SERVEBENCH_SERVED_H_
