// Small string helpers shared across modules.
#ifndef FUZZYDB_COMMON_STRING_UTIL_H_
#define FUZZYDB_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace fuzzydb {

/// Lower-cases ASCII characters; other bytes pass through unchanged.
std::string ToLower(const std::string& s);

/// Upper-cases ASCII characters; other bytes pass through unchanged.
std::string ToUpper(const std::string& s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(const std::string& a, const std::string& b);

/// Formats a double compactly: integers below 1e15 as printf's "%.0f",
/// otherwise as "%.*g" with `precision` significant digits.
std::string FormatDouble(double v, int precision = 6);
/// Appends FormatDouble(v, precision) to *out.
void AppendDouble(double v, int precision, std::string* out);

/// Appends the first of printf's "%.15g", "%.16g" and "%.17g" forms of
/// `v` that parses back to exactly `v`: round-trip exact, yet compact
/// for common values ("0.5", not 17 digits).
void AppendRoundTripDouble(double v, std::string* out);

/// True for the bytes a JSON string literal must escape.
inline bool NeedsJsonEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}
/// Appends `s` escaped for a JSON string literal (quotes not included):
/// \", \\, \n, \r, \t, and other control bytes as \u00XX.
void AppendJsonEscaped(std::string_view s, std::string* out);
/// AppendJsonEscaped into a fresh string.
std::string JsonEscape(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

}  // namespace fuzzydb

#endif  // FUZZYDB_COMMON_STRING_UTIL_H_
