#include "server/wire.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace fuzzydb {
namespace server {

AnswerWriter::AnswerWriter(std::string* out) : out_(out) {
  *out_ += ",\"columns\":[";
}

void AnswerWriter::Column(std::string_view name) {
  *out_ += columns_++ == 0 ? "\"" : ",\"";
  AppendJsonEscaped(name, out_);
  *out_ += '"';
}

void AnswerWriter::BeginRow() {
  *out_ += rows_++ == 0 ? "],\"rows\":[[" : "],[";
  values_ = 0;
}

std::string* AnswerWriter::BeginValue() {
  *out_ += values_++ == 0 ? "\"" : ",\"";
  value_start_ = out_->size();
  return out_;
}

void AnswerWriter::EndValue() {
  // Only string values can need escaping: look before copying.
  if (std::any_of(out_->begin() + value_start_, out_->end(),
                  NeedsJsonEscape)) {
    const std::string raw = out_->substr(value_start_);
    out_->resize(value_start_);
    AppendJsonEscaped(raw, out_);
  }
  *out_ += '"';
}

void AnswerWriter::BeginDegrees() {
  *out_ += rows_ == 0 ? "],\"rows\":[],\"degrees\":["
                       : "]],\"degrees\":[";
}

void AnswerWriter::Degree(double degree) {
  if (degrees_++ > 0) *out_ += ',';
  AppendRoundTripDouble(degree, out_);
}

void AnswerWriter::Finish() { *out_ += ']'; }

std::string RenderReplyFrame(const ReplyFrame& frame) {
  std::string line = "{\"session\":" + std::to_string(frame.session_id) +
                     ",\"seq\":" + std::to_string(frame.seq) +
                     ",\"status\":\"";
  AppendJsonEscaped(frame.status, &line);
  line += "\",\"error\":\"";
  AppendJsonEscaped(frame.error, &line);
  line += "\",\"text\":\"";
  AppendJsonEscaped(frame.text, &line);
  line += "\",\"elapsed_ms\":";
  AppendRoundTripDouble(frame.elapsed_ms, &line);
  line += ",\"queue_wait_ms\":";
  AppendRoundTripDouble(frame.queue_wait_ms, &line);
  if (frame.has_answer && frame.answer_json.empty()) {
    AnswerWriter writer(&line);
    for (const std::string& column : frame.columns) writer.Column(column);
    for (const std::vector<std::string>& row : frame.rows) {
      writer.BeginRow();
      for (const std::string& value : row) {
        writer.BeginValue()->append(value);
        writer.EndValue();
      }
    }
    writer.BeginDegrees();
    for (const double degree : frame.degrees) writer.Degree(degree);
    writer.Finish();
  } else if (frame.has_answer) {
    // Exactly the rest of the line, '}' and the transport's newline.
    line.reserve(line.size() + frame.answer_json.size() +
                 (frame.goodbye ? 15 : 0) + 2);
    line += frame.answer_json;
  }
  if (frame.goodbye) line += ",\"goodbye\":true";
  line += '}';
  return line;
}

namespace {

// A pocket parser for exactly the JSON this codec emits: objects with
// string/number/bool values plus the columns/rows/degrees arrays. No
// nesting beyond rows' array-of-arrays, no unicode surrogate pairs
// (JsonEscape never emits them for the byte strings we carry).
class FrameParser {
 public:
  explicit FrameParser(const std::string& text) : text_(text) {}

  bool Parse(ReplyFrame* frame) {
    SkipSpace();
    if (!Consume('{')) return false;
    SkipSpace();
    if (Consume('}')) return AtEnd();
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      SkipSpace();
      if (!Consume(':')) return false;
      SkipSpace();
      if (!ParseValue(key, frame)) return false;
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      if (Consume('}')) return AtEnd();
      return false;
    }
  }

 private:
  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4 || code < 0 || code > 0xff) {
            return false;  // the emitter only escapes control bytes
          }
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseNumber(double* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    *out = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  bool ParseValue(const std::string& key, ReplyFrame* frame) {
    if (key == "session" || key == "seq" || key == "elapsed_ms" ||
        key == "queue_wait_ms") {
      double number = 0;
      if (!ParseNumber(&number)) return false;
      if (key == "session") {
        frame->session_id = static_cast<uint64_t>(number);
      } else if (key == "seq") {
        frame->seq = static_cast<uint64_t>(number);
      } else if (key == "elapsed_ms") {
        frame->elapsed_ms = number;
      } else {
        frame->queue_wait_ms = number;
      }
      return true;
    }
    if (key == "status") return ParseString(&frame->status);
    if (key == "error") return ParseString(&frame->error);
    if (key == "text") return ParseString(&frame->text);
    if (key == "goodbye") {
      if (text_.compare(pos_, 4, "true") == 0) {
        pos_ += 4;
        frame->goodbye = true;
        return true;
      }
      if (text_.compare(pos_, 5, "false") == 0) {
        pos_ += 5;
        return true;
      }
      return false;
    }
    if (key == "columns") {
      frame->has_answer = true;
      return ParseArray(&frame->columns, &FrameParser::ParseString);
    }
    if (key == "degrees") {
      frame->has_answer = true;
      return ParseArray(&frame->degrees, &FrameParser::ParseNumber);
    }
    if (key == "rows") {
      frame->has_answer = true;
      return ParseArray(&frame->rows, &FrameParser::ParseStringArray);
    }
    return false;  // unknown key: not this codec's schema
  }

  bool ParseStringArray(std::vector<std::string>* out) {
    return ParseArray(out, &FrameParser::ParseString);
  }

  /// A JSON array whose elements `parse_element` reads.
  template <typename T>
  bool ParseArray(std::vector<T>* out,
                  bool (FrameParser::*parse_element)(T*)) {
    if (!Consume('[')) return false;
    SkipSpace();
    out->clear();
    if (Consume(']')) return true;
    while (true) {
      T element;
      if (!(this->*parse_element)(&element)) return false;
      out->push_back(std::move(element));
      SkipSpace();
      if (Consume(',')) {
        SkipSpace();
        continue;
      }
      return Consume(']');
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

bool ParseReplyFrame(const std::string& line, ReplyFrame* frame) {
  *frame = ReplyFrame();
  return FrameParser(line).Parse(frame);
}

}  // namespace server
}  // namespace fuzzydb
