// Single-pass field extraction over one server event line.
//
// The load generator reads every event the servers send, so it must not
// build a JSON tree per line: that would make the client, not quest, the
// bottleneck. Events are flat objects whose field names are unique
// within a line (nested "stats"/"cache" objects use distinct names), so
// each lookup is a substring search for "name": followed by a scan of
// the value. Cold events (stats) are parsed with io::Json instead.

#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace questbench {

/// The string value of "key", without its quotes, escapes left as sent;
/// nullopt when the key is absent or its value is not a string.
std::optional<std::string_view> scan_string(std::string_view line,
                                            std::string_view key);
/// The numeric value of "key"; nullopt when absent or not a number
/// (e.g. "cost":null on an incomplete result).
std::optional<double> scan_number(std::string_view line, std::string_view key);
/// The boolean value of "key"; nullopt when absent or not a boolean.
std::optional<bool> scan_bool(std::string_view line, std::string_view key);
/// The integer array value of "key" into `out`; false when absent or
/// malformed.
bool scan_uint_array(std::string_view line, std::string_view key,
                     std::vector<std::uint32_t>& out);

}  // namespace questbench
