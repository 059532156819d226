#include "src/support/env.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "src/support/common.h"

namespace parad::env {

namespace {

double parseReal(const char* who, const char* name, const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0')
    fail(who, ": malformed ", name, "='", s, "' (expected a number)");
  if (!std::isfinite(v))
    fail(who, ": ", name, " must be finite, got '", s, "'");
  if (v < 0) fail(who, ": ", name, " must be non-negative, got '", s, "'");
  return v;
}

}  // namespace

std::string text(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr ? s : "";
}

std::optional<double> real(const char* who, const char* name) {
  std::string s = text(name);
  if (s.empty()) return std::nullopt;
  return parseReal(who, name, s);
}

std::optional<std::uint64_t> count(const char* who, const char* name,
                                   std::uint64_t max) {
  std::string s = text(name);
  if (s.empty()) return std::nullopt;
  parseReal(who, name, s);  // malformed and negative values fail as numbers
  if (s.find_first_not_of("0123456789") != std::string::npos)
    fail(who, ": ", name, " must be a non-negative integer, got '", s, "'");
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE || v > max)
    fail(who, ": ", name, " must be at most ", max, ", got '", s, "'");
  return v;
}

std::size_t editDistance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

}  // namespace parad::env
