// Minimal JSON text builder for the harness's result file and trace file.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace perfbench {

inline std::string jsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double (JSON has no NaN/inf;
/// those become null, which the harness treats as a failed measurement).
inline std::string jsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// An object built key by key; values are JSON text.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + jsonStr(key) + ":" + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, jsonNum(v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, jsonStr(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
