// Environment knobs: the one place the library reads the process
// environment. Callers read a knob at the point it takes effect (tests
// setenv between runs), so nothing here caches. Numeric knobs are parsed
// strictly: a value that is not wholly a number of the right kind fails
// with a message naming the knob and the value, never a silent default.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace parad::env {

/// The value of `name`, or "" when it is unset or empty.
std::string text(const char* name);

/// `name` as a finite, non-negative number (strtod syntax), or nullopt when
/// unset or empty. "nan", "inf" and overflowing values fail. Errors are
/// prefixed with `who`, the subsystem that owns the knob.
std::optional<double> real(const char* who, const char* name);

/// `name` as a non-negative decimal integer no larger than `max`, or nullopt
/// when unset or empty. "64MB", "1.5" and "-1" all fail.
std::optional<std::uint64_t> count(
    const char* who, const char* name,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Levenshtein distance (small strings only).
std::size_t editDistance(std::string_view a, std::string_view b);

/// The first candidate at the smallest edit distance from `name`, or "" when
/// that distance is more than 2 — a far "match" is noise, not a suggestion.
template <typename Names>
std::string nearestName(std::string_view name, const Names& candidates) {
  std::string best;
  std::size_t bestDist = std::string::npos;
  for (const auto& c : candidates) {
    std::size_t d = editDistance(name, c);
    if (d < bestDist) {
      bestDist = d;
      best = c;
    }
  }
  return bestDist <= 2 ? best : std::string();
}

}  // namespace parad::env
