#include "served.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace servebench {

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& flags,
                          std::string* error) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<std::string> args = {binary, "--port=0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid == 0) {
    // The server must not outlive the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  stdout_fd_ = pipe_fds[0];

  // Read the "listening on 127.0.0.1:<port>" line (10 s limit).
  std::string line;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) break;
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  if (line.find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    *error = "server did not start (output: '" + line + "')";
    Kill();
    return false;
  }
  port_ = std::atoi(line.c_str() + colon + 1);
  return true;
}

void ServerProcess::Kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double ServerProcess::CpuMs() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
  std::string content((std::istreambuf_iterator<char>(file)),
                      std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const size_t close = content.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(content.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int index = 3; rest >> field; ++index) {
    if (index == 14) utime = std::strtod(field.c_str(), nullptr);
    if (index == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool Connection::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool Connection::Roundtrip(const std::string& line, std::string* reply) {
  if (fd_ < 0) return false;
  const std::string data = line + "\n";
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  size_t scanned = 0;
  while (true) {
    const size_t newline = buffer_.find('\n', scanned);
    if (newline != std::string::npos) {
      reply->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    scanned = buffer_.size();
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

namespace {

// `","<name>":` cannot occur inside a JSON string the codec escaped
// (every quote there is preceded by a backslash), so the first match is
// the field itself.
double NumberField(const std::string& line, const char* marker) {
  const size_t at = line.find(marker);
  if (at == std::string::npos) return 0.0;
  return std::strtod(line.c_str() + at + std::strlen(marker), nullptr);
}

uint64_t Fnv1a(const char* data, size_t size) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

uint64_t AnswerDigest(const std::string& frame_line) {
  const size_t times = frame_line.find("\",\"elapsed_ms\":");
  if (times == std::string::npos) return 0;
  const size_t answer = frame_line.find(",\"columns\":[", times);
  if (answer == std::string::npos) return 0;
  return Fnv1a(frame_line.data() + answer, frame_line.size() - answer);
}

bool SummarizeReply(const std::string& line, ReplySummary* summary) {
  *summary = ReplySummary();
  const size_t status = line.find("\"status\":\"");
  if (line.empty() || line.front() != '{' || status == std::string::npos) {
    return false;
  }
  summary->ok = line.compare(status + 10, 3, "OK\"") == 0;
  summary->elapsed_ms = NumberField(line, "\",\"elapsed_ms\":");
  summary->queue_wait_ms = NumberField(line, ",\"queue_wait_ms\":");
  summary->answer_digest = AnswerDigest(line);
  return true;
}

}  // namespace servebench
