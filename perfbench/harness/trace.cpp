#include "trace.h"

#include <fstream>

#include "json.h"

namespace perfbench {

namespace {

/// ns -> µs text with three decimals, so the ns stamp reads back exactly.
std::string micros(std::int64_t ns) {
  std::string sign = ns < 0 ? "-" : "";
  std::uint64_t a = static_cast<std::uint64_t>(ns < 0 ? -ns : ns);
  char frac[8];
  std::snprintf(frac, sizeof frac, "%03llu",
                static_cast<unsigned long long>(a % 1000));
  return sign + std::to_string(a / 1000) + "." + frac;
}

}  // namespace

bool Tracer::writeChromeJson(const std::string& path,
                             const std::string& otherData) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  for (const Span& s : spans_)
    if (s.startNs < origin) origin = s.startNs;
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << otherData
    << ",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.count("span", i).raw("parent", std::to_string(s.parent))
        .count("id", s.id);
    JsonObject ev;
    ev.str("name", s.name).str("ph", "X").raw("ts", micros(s.startNs - origin))
        .raw("dur", micros(s.endNs - s.startNs)).count("pid", 1)
        .count("tid", static_cast<std::uint64_t>(s.lane)).raw("args", args.text());
    f << (i ? ",\n" : "\n") << ev.text();
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
