#include "event_scan.hpp"

#include <charconv>
#include <cstdlib>
#include <string>

namespace questbench {
namespace {

/// Offset of the first byte of the value of "key", or npos.
std::size_t value_offset(std::string_view line, std::string_view key) {
  std::size_t from = 0;
  for (;;) {
    const std::size_t at = line.find(key, from);
    if (at == std::string_view::npos) return at;
    const std::size_t end = at + key.size();
    if (at > 0 && line[at - 1] == '"' && end + 1 < line.size() &&
        line[end] == '"' && line[end + 1] == ':') {
      return end + 2;
    }
    from = at + 1;
  }
}

}  // namespace

std::optional<std::string_view> scan_string(std::string_view line,
                                            std::string_view key) {
  const std::size_t start = value_offset(line, key);
  if (start == std::string_view::npos || start >= line.size() ||
      line[start] != '"') {
    return std::nullopt;
  }
  for (std::size_t i = start + 1; i < line.size(); ++i) {
    if (line[i] == '\\') {
      ++i;
    } else if (line[i] == '"') {
      return line.substr(start + 1, i - start - 1);
    }
  }
  return std::nullopt;
}

std::optional<double> scan_number(std::string_view line,
                                  std::string_view key) {
  const std::size_t start = value_offset(line, key);
  if (start == std::string_view::npos || start >= line.size()) {
    return std::nullopt;
  }
  const char c = line[start];
  if (c != '-' && (c < '0' || c > '9')) return std::nullopt;
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}' &&
         line[end] != ']') {
    ++end;
  }
  // strtod, not from_chars: it parses the server's %.17g text to the
  // identical double, which the bit-for-bit cost check relies on.
  const std::string text(line.substr(start, end - start));
  char* parsed_end = nullptr;
  const double value = std::strtod(text.c_str(), &parsed_end);
  if (parsed_end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

std::optional<bool> scan_bool(std::string_view line, std::string_view key) {
  const std::size_t start = value_offset(line, key);
  if (start == std::string_view::npos) return std::nullopt;
  const std::string_view rest = line.substr(start);
  if (rest.starts_with("true")) return true;
  if (rest.starts_with("false")) return false;
  return std::nullopt;
}

bool scan_uint_array(std::string_view line, std::string_view key,
                     std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t pos = value_offset(line, key);
  if (pos == std::string_view::npos || pos >= line.size() ||
      line[pos] != '[') {
    return false;
  }
  ++pos;
  if (pos < line.size() && line[pos] == ']') return true;
  while (pos < line.size()) {
    std::uint32_t value = 0;
    const auto [end, error] =
        std::from_chars(line.data() + pos, line.data() + line.size(), value);
    if (error != std::errc{}) return false;
    out.push_back(value);
    pos = static_cast<std::size_t>(end - line.data());
    if (pos >= line.size()) return false;
    if (line[pos] == ']') return true;
    if (line[pos] != ',') return false;
    ++pos;
  }
  return false;
}

}  // namespace questbench
