// Deterministic fault injection for the virtual machine.
//
// A FaultPlan decides, for every message / allocation / rank, whether a
// fault fires. Every decision is a pure hash of (seed, flow identifiers),
// never of wall time or of mutable RNG state, so a fault schedule is fully
// replayable from its seed regardless of how the cooperative scheduler
// interleaves ranks — the property the chaos sweep in tests/test_faults.cpp
// relies on. Faults perturb only virtual *timing*; the fabric's retransmit
// protocol guarantees exactly-once delivery so program values stay
// bit-exact (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <string>

#include "src/support/common.h"
#include "src/support/hash.h"

namespace parad::psim {

/// Knobs of the fault injector. Parsed from a `PARAD_FAULTS` spec string or
/// set directly on MachineConfig::faults. All rates are probabilities in
/// [0, 1]; the plan is inert unless `enabled` is true.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;
  double dropRate = 0;        // P(a message copy is lost in flight)
  double dupRate = 0;         // P(the network delivers a ghost duplicate)
  double delayRate = 0;       // P(a message picks up extra jitter)
  double delayNs = 2000;      // max extra virtual ns of jitter
  double allocFailRate = 0;   // P(an allocation transiently fails once)
  double straggleRate = 0;    // P(a rank runs dilated for the whole run)
  double straggleFactor = 4;  // clock dilation of a straggler rank
  double rtoNs = 4000;        // base retransmit timeout (exponential backoff)
  int maxRetransmits = 16;    // copies dropped before delivery is forced
  double killRate = 0;        // P(a rank suffers its k-th crash), per k
  double killNs = 20000;      // virtual-time window scale of crash instants
  int ckptInterval = 0;       // checkpoint every k-th collective (0 = off)
  int retryBudget = 3;        // recoveries allowed before the run gives up
  // Elastic recovery: answer a kill by migrating the dead rank's checkpoint
  // shard to a survivor and continuing on n-1 ranks, instead of rolling the
  // whole machine back through a full restore. Requires ckpt_interval > 0.
  bool elastic = false;
  // Durable checkpoints (DESIGN.md §16): with a directory set (and
  // ckpt_interval > 0) every capture is also published through the
  // io::DurableStore, and a fresh Machine seeds its recovery state from the
  // newest valid on-disk epoch before the first attempt — restart-resume
  // across process boundaries. The io* rates drive the store's seeded
  // disk-fault injector (same determinism contract as the fabric faults).
  std::string ckptDir;        // durable checkpoint directory ("" = off)
  double ioFailRate = 0;      // P(a durable publish fails — ENOSPC model)
  double tornRate = 0;        // P(a durable publish installs a torn file)
  double ioCorruptRate = 0;   // P(a durable read observes a flipped bit)
};

/// Parses a comma-separated `key=value` fault spec, e.g.
/// `seed=7,drop=0.2,dup=0.05,delay=0.3,delayns=1500,straggle=0.25,factor=3`.
/// Keys: seed, drop, dup, delay, delayns, allocfail, straggle, factor, rto,
/// maxretry, kill, killns, ckpt_interval, retry, elastic, ckpt_dir, iofail,
/// torn, iocorrupt. An empty spec yields a disabled config; unknown keys or
/// malformed values raise parad::Error with the offending token (unknown
/// keys additionally name the nearest valid key so a typo like `drp=0.1`
/// cannot silently run fault-free). `ckpt_dir` takes a path (no commas);
/// everything else is numeric.
FaultConfig parseFaultSpec(const std::string& spec);

/// The seeded decision oracle. Stateless: safe to query from any rank in any
/// order.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.enabled; }
  const FaultConfig& config() const { return cfg_; }

  /// Faults drawn for one logical message, identified by its flow
  /// (src, dst, tag) and per-flow sequence number.
  struct SendFaults {
    int retransmits = 0;      // copies dropped before the surviving one
    double extraDelayNs = 0;  // jitter added to the surviving copy
    bool duplicate = false;   // network also delivers a ghost duplicate
    int injected() const {
      return retransmits + (extraDelayNs > 0 ? 1 : 0) + (duplicate ? 1 : 0);
    }
  };
  SendFaults onSend(int src, int dst, int tag, std::uint64_t seq) const;

  /// Clock-dilation factor of `rank` (1.0 unless the rank straggles).
  double slowdown(int rank) const;

  /// Whether the `allocIndex`-th allocation of the run transiently fails
  /// (the runtime retries after a backoff; only time is lost).
  bool allocFails(std::uint64_t allocIndex) const;

  /// Virtual time at which rank `rank` suffers its `index`-th crash, or a
  /// negative value if it does not. Crash events form a contiguous prefix
  /// per rank (the machine consumes index k only after recovering from it),
  /// and successive kill times are strictly increasing, so a replay that has
  /// survived k crashes deterministically meets crash k+1 or none at all.
  double killTime(int rank, int index) const;

 private:
  double unit(std::uint64_t salt, std::uint64_t a, std::uint64_t b,
              std::uint64_t c, std::uint64_t d) const {
    return hash::unit(cfg_.seed, salt, {a, b, c, d});
  }

  FaultConfig cfg_;
};

}  // namespace parad::psim
