// Benchmark-side span recorder.
//
// Spans are placed by the benchmark around its calls into each layer of the
// library (it never edits the library), kept in memory, and written once at
// exit as Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
// Every span records its name, start and end (steady_clock ns), the span
// that caused it, and the id of the gradient or request it belongs to.
// Self time (a span minus the part its children cover) is derived from the
// file by perfbench/stats.py.
//
// When the recorder is off, begin() is one branch and records nothing, so
// the untraced runs that give the end-to-end metrics pay no tracing cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int kNone = -1;

  struct Span {
    std::string name;
    std::int64_t startNs = 0, endNs = 0;
    int parent = kNone;
    std::uint64_t id = 0;  // gradient or request id
    int lane = 0;          // display row: 0 main, rank + 1, or client + 1
  };

  void enable(bool on) { on_ = on; }

  /// Opens a span; returns its handle, or kNone when tracing is off.
  /// Thread-safe: rank callbacks run on the scheduler's carrier threads.
  int begin(const char* name, std::uint64_t id, int parent, int lane = 0) {
    if (!on_) return kNone;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t, t, parent, id, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int span) {
    if (span == kNone) return;
    std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].endNs = t;
  }
  /// Records a finished span with explicit stamps (spans whose end is
  /// observed elsewhere, e.g. a serve response's completion stamp).
  int record(const char* name, std::uint64_t id, int parent,
             std::int64_t startNs, std::int64_t endNs, int lane = 0) {
    if (!on_) return kNone;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, startNs, endNs, parent, id, lane});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Writes every span as a Chrome "complete" event (ph "X"); ts/dur are in
  /// microseconds with nanosecond decimals, so the file round-trips exactly.
  /// `otherData` is a JSON object text stored under the same key.
  bool writeChromeJson(const std::string& path,
                       const std::string& otherData) const;

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t id, int parent,
        int lane = 0)
      : t_(t), span_(t.begin(name, id, parent, lane)) {}
  ~Scope() { t_.end(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int handle() const { return span_; }

 private:
  Tracer& t_;
  int span_;
};

}  // namespace perfbench
