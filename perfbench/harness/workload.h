// One benchmark workload: cold set-up, reference checks, a timed closed
// loop, and per-layer counters. Workloads call only the library's public
// entry points and place their spans around those calls (trace.h).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "json.h"
#include "trace.h"

namespace perfbench {

/// One reference check: passes or fails with a human-readable detail.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Start and end stamps (steady_clock ns) of every gradient or request,
/// streamed to a file of native int64 pairs: holding every serve sample in
/// memory would grow the process with the number of requests, which
/// peak_rss_mb would then charge to the library.
class SampleLog {
 public:
  explicit SampleLog(const std::string& path)
      : path_(path), f_(std::fopen(path.c_str(), "wb")) {
    if (!f_) throw std::runtime_error("cannot write " + path);
  }
  ~SampleLog() { std::fclose(f_); }
  SampleLog(const SampleLog&) = delete;
  SampleLog& operator=(const SampleLog&) = delete;
  void add(std::int64_t startNs, std::int64_t endNs) {
    const std::int64_t pair[2] = {startNs, endNs};
    std::fwrite(pair, sizeof pair, 1, f_);
  }
  /// Flushes; false when any write failed.
  bool finish() { return std::fflush(f_) == 0 && !std::ferror(f_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* f_;
};

/// What a timed closed loop did. A gradient (or request) counts as failed
/// when it threw, was refused, or did not match its reference.
struct LoopResult {
  std::vector<std::string> sampleFiles;  // SampleLog paths
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::int64_t startNs = 0, endNs = 0;  // the timed window
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Cold set-up in a fresh process: IR build, passes, AD, lowering or
  /// compile, until the first gradient is ready to run. The caller times it
  /// as `setup_s`.
  virtual void setup(Tracer& t) = 0;

  /// Set-up layers timed only in the traced run because set-up does not
  /// otherwise need them (the gradient plan is recomputed on its own).
  virtual void probeAfterSetup(Tracer&) {}

  /// Checks outputs against references that do not trust the AD under
  /// test. Runs once, outside the timed window. `corrupt` perturbs every
  /// reference, which must make the checks fail.
  virtual std::vector<Check> check(bool corrupt) = 0;

  /// Runs gradients (or requests) back to back for `seconds`; their
  /// stamps go to files named `<samplePrefix><k>.bin`.
  virtual LoopResult loop(double seconds, Tracer& t,
                          const std::string& samplePrefix) = 0;

  /// Per-layer counters of the most recent loop.
  virtual void counters(JsonObject& out) = 0;
};

std::unique_ptr<Workload> makeLuleshOmp(std::uint64_t seed);
std::unique_ptr<Workload> makeLuleshMp(std::uint64_t seed);
std::unique_ptr<Workload> makeBudeCodegen(std::uint64_t seed);
std::unique_ptr<Workload> makeServeHot(std::uint64_t seed);

/// Seed-derived stream for one purpose (inputs, directions, tenant order),
/// so changing how one stream is drawn leaves the others alone.
inline std::uint64_t subSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
