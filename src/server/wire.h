// The line-protocol frame codec shared by the server, the client tool,
// and the tests.
//
// Requests are one statement per line of plain text (SQL ending in ';',
// a shell dot-command, or a session-level SET); replies are exactly one
// JSON object per line (JSONL), so a client can pair every request with
// its reply by reading one line back. A reply frame carries the
// statement's machine-readable outcome (status code + error text), the
// shell's rendered text output, and -- for successful SELECTs -- the
// answer relation as structured columns/rows/degrees, captured through
// ShellResultSink without re-running anything.
//
// The codec is deliberately self-contained (no third-party JSON): the
// emitter writes the fixed schema below, and the parser reads exactly
// that schema back, so fuzzydb_client and the bench harness round-trip
// frames without guessing.
#ifndef FUZZYDB_SERVER_WIRE_H_
#define FUZZYDB_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"

namespace fuzzydb {
namespace server {

/// One reply frame: everything the server says about one request line.
struct ReplyFrame {
  uint64_t session_id = 0;
  uint64_t seq = 0;            // per-session request counter, from 1
  std::string status = "OK";   // StatusCodeName(): OK, CANCELLED, ...
  std::string error;           // rendered error text; empty when OK
  std::string text;            // the shell's rendered output
  bool has_answer = false;     // SELECT answered
  // The answer as the wire carries it (see AnswerWriter), encoded once by
  // Session::Execute; when empty, RenderReplyFrame encodes the decoded
  // form below instead.
  std::string answer_json;
  // The decoded answer, filled by ParseReplyFrame.
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;  // rendered values
  std::vector<double> degrees;                 // one per row
  double elapsed_ms = 0.0;     // execution wall time
  double queue_wait_ms = 0.0;  // admission-queue wait
  bool goodbye = false;        // .quit: the server closes after this
};

/// Serializes one frame as a single JSON line (no trailing newline).
std::string RenderReplyFrame(const ReplyFrame& frame);

/// Parses a frame rendered by RenderReplyFrame. Returns false (leaving
/// `frame` default-initialized fields unspecified) when the line is not
/// a well-formed frame of this codec's schema.
bool ParseReplyFrame(const std::string& line, ReplyFrame* frame);

/// JSON string escaping used by the codec (exposed for tools).
using ::fuzzydb::JsonEscape;

/// The one writer of a reply's answer:
///   ,"columns":[...],"rows":[[...],...],"degrees":[...]
/// Session feeds it straight from the answer relation; RenderReplyFrame
/// from a decoded frame's columns/rows/degrees. Call Column per column,
/// BeginRow and the values of every row, then BeginDegrees, one Degree
/// per row, and Finish.
class AnswerWriter {
 public:
  explicit AnswerWriter(std::string* out);

  void Column(std::string_view name);
  void BeginRow();
  /// Opens the current row's next value: append its rendered text to the
  /// returned string, then call EndValue, which quotes and escapes it.
  std::string* BeginValue();
  void EndValue();

  void BeginDegrees();
  /// Round-trip exact: the degree parses back bit-identical.
  void Degree(double degree);
  void Finish();

 private:
  std::string* out_;
  size_t columns_ = 0;
  size_t rows_ = 0;
  size_t values_ = 0;   // in the current row
  size_t degrees_ = 0;
  size_t value_start_ = 0;
};

}  // namespace server
}  // namespace fuzzydb

#endif  // FUZZYDB_SERVER_WIRE_H_
