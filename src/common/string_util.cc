#include "common/string_util.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace fuzzydb {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

namespace {

/// The shortest digits that parse back to `v` (std::to_chars), with the
/// "%e" text they came in: "-d.ddde+XX", no trailing zeros.
struct ShortestDigits {
  explicit ShortestDigits(double v) {
    size = std::to_chars(text, text + sizeof(text), v,
                         std::chars_format::scientific).ptr - text;
    const char* p = text + (*text == '-');
    for (; *p != 'e'; ++p) {
      if (*p != '.') digits[count++] = *p;
    }
    std::from_chars(p + 2, text + size, exponent);
    if (p[1] == '-') exponent = -exponent;
  }

  char text[32];
  long size = 0;
  char digits[17];
  int count = 0;     // significant digits
  int exponent = 0;  // decimal exponent of the first digit
};

/// Appends `s` the way printf's "%.*g" prints a value whose rounding to
/// `precision` significant digits is exactly `s`: "%e" form for
/// exponents below -4 or from `precision` up, else plain digits, with
/// trailing zeros dropped either way.
///
/// Callers establish the rounding condition. For a normal double, every
/// decimal that parses back to it lies within one ulp (< 2.3e-16
/// relative) of it, so its nearest decimal of p <= 15 digits, when one
/// of at most p digits parses back, is the shortest one. At 16 digits
/// that still holds unless the double is a power of two (its rounding
/// interval is lopsided), and at 17 digits the nearest always parses
/// back.
void AppendAsG(const ShortestDigits& s, int precision, std::string* out) {
  if (s.exponent < -4 || s.exponent >= precision) {
    out->append(s.text, s.size);
    return;
  }
  if (*s.text == '-') out->push_back('-');
  const int whole = s.exponent + 1;  // digits before the point
  if (whole <= 0) {
    out->append("0.").append(-whole, '0').append(s.digits, s.count);
  } else if (whole >= s.count) {
    out->append(s.digits, s.count).append(whole - s.count, '0');
  } else {
    out->append(s.digits, whole).append(1, '.').append(s.digits + whole,
                                                       s.count - whole);
  }
}

}  // namespace

std::string FormatDouble(double v, int precision) {
  std::string out;
  AppendDouble(v, precision, &out);
  return out;
}

void AppendDouble(double v, int precision, std::string* out) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    // "%.0f": an integer below 1e15 is exactly its shortest digits.
    AppendAsG(ShortestDigits(v), 15, out);
    return;
  }
  if (std::isnormal(v) && precision >= 1 && precision <= 15) {
    const ShortestDigits shortest(v);
    if (shortest.count <= precision) {
      AppendAsG(shortest, precision, out);
      return;
    }
  }
  char buf[64];
  out->append(buf, std::snprintf(buf, sizeof(buf), "%.*g", precision, v));
}

void AppendRoundTripDouble(double v, std::string* out) {
  if (std::isnormal(v) || v == 0.0) {
    const ShortestDigits shortest(v);
    const bool power_of_two =
        (std::bit_cast<uint64_t>(v) & ((uint64_t{1} << 52) - 1)) == 0;
    if (shortest.count != 16 || !power_of_two) {
      AppendAsG(shortest, std::max(15, shortest.count), out);
      return;
    }
  }
  char buf[64];
  int size = 0;
  for (int precision = 15; precision <= 17; ++precision) {
    size = std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = 0.0;
    std::from_chars(buf, buf + size, back);
    if (back == v) break;
  }
  out->append(buf, size);
}

void AppendJsonEscaped(std::string_view s, std::string* out) {
  size_t plain = 0;  // start of the run not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (!NeedsJsonEscape(c)) continue;
    out->append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        *out += buf;
      }
    }
  }
  out->append(s.data() + plain, s.size() - plain);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonEscaped(s, &out);
  return out;
}

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace fuzzydb
