// One client connection's execution state: a Session wraps its own
// Shell (own catalog, own terms, own options), so concurrent clients
// are isolated the way two fuzzydb_shell processes would be, while
// sharing the process-wide services (metrics, cache, registry, journal)
// through the same code paths the serial shell uses -- which is what
// makes server answers bit-identical to a serial baseline by
// construction.
//
// Per-session execution options are SET-able over the wire:
//
//   SET cache on|off        consult the process-wide cross-query cache
//   SET slow_query_ms X     slow-query-log threshold (0 = off)
//   SET timeout_ms X        per-query deadline (0 = none)
//   SET memory_budget N[kmg] per-query memory budget, clamped to the
//                           admission controller's fair share
//   SET threads N           engine worker threads (0 = hardware)
//
// Everything else on a request line -- SQL statements ending in ';',
// shell dot-commands -- is fed to the wrapped Shell verbatim.
#ifndef FUZZYDB_SERVER_SESSION_H_
#define FUZZYDB_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "server/wire.h"
#include "shell/shell.h"

namespace fuzzydb {
namespace server {

/// Session-wide defaults inherited from the server configuration; each
/// session may override its own copies via SET.
struct SessionDefaults {
  bool cache = true;
  double slow_query_ms = 0.0;
  double timeout_ms = 0.0;
  uint64_t memory_budget = 0;  // 0 = unlimited (before fair-share clamp)
  size_t threads = 0;          // 0 = hardware concurrency
};

class Session : public ShellResultSink {
 public:
  /// `fair_share_budget` is the admission controller's per-query memory
  /// share (0 = unconstrained): the effective per-query budget is the
  /// session's SET value clamped to it. When `shared_catalog` is
  /// non-null, statements execute against it (the server's durable WAL
  /// database) instead of a private per-session catalog; MVCC snapshot
  /// reads and the WAL commit lock make the sharing safe.
  Session(uint64_t id, const SessionDefaults& defaults,
          uint64_t fair_share_budget, Catalog* shared_catalog = nullptr,
          wal::WalManager* wal = nullptr);

  /// Executes one request line (a SET, a dot-command, or SQL) and
  /// returns its reply frame. Not thread-safe: the server serializes
  /// requests per session (one in flight per connection).
  ReplyFrame Execute(const std::string& line);

  uint64_t id() const { return id_; }
  /// Requests completed so far (readable from any thread).
  uint64_t statements() const {
    return statements_.load(std::memory_order_relaxed);
  }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }

  /// The per-query memory budget actually in force: the session's SET
  /// value clamped to the admission fair share (0 = unconstrained).
  uint64_t effective_memory_budget() const {
    return shell_.memory_budget();
  }

  // ShellResultSink: encodes the answer relation into the frame being
  // built by the current Execute call (ReplyFrame::answer_json).
  void OnAnswer(const Relation& answer) override;

 private:
  /// Handles "SET key value"; returns false when the line is not a SET.
  bool ExecuteSet(const std::string& line, ReplyFrame* frame);
  void ApplyOptions();

  const uint64_t id_;
  const uint64_t fair_share_budget_;
  SessionDefaults options_;
  Shell shell_;
  ReplyFrame* current_frame_ = nullptr;  // non-null inside Execute
  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace server
}  // namespace fuzzydb

#endif  // FUZZYDB_SERVER_SESSION_H_
