// Coordinated checkpoint/restart for the virtual machine.
//
// Rank crashes (the FaultPlan `kill=` class) are recovered by rolling every
// rank back to the last checkpoint and replaying. Checkpoints are taken at
// collective boundaries (barrier/allreduce): the cooperative scheduler runs
// exactly one rank at a time, and when the last rank arrives at a collective
// every other rank is parked inside the same call, so the whole machine is
// quiescent at one well-defined point of the program — the global collective
// ordinal is the machine's logical program counter. A snapshot therefore
// needs no native stacks: per-rank data memory (including the CachePlan-
// identified tape/cache objects), the fabric's per-flow sequence numbers,
// the fault-plan cursors, and the run statistics fully determine the rest of
// the run.
//
// Restart is replay-from-zero with snapshot re-seating: the run-start memory
// image is restored, the rank functions re-execute from the top (pure
// deterministic seek — same IR, same fault decisions), and when the replay
// reaches the checkpoint's boundary ordinal the snapshot is applied and the
// clocks jump to the recovery resume time. Values downstream of the restore
// point flow out of the snapshot, so primal results and gradients are
// bit-identical to a fault-free run; only virtual time degrades.
// See DESIGN.md §11.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/io/store.h"
#include "src/psim/fabric.h"
#include "src/psim/failure.h"
#include "src/psim/faults.h"
#include "src/psim/machine.h"
#include "src/psim/memory.h"

namespace parad::psim {

/// Control-flow signal thrown by Machine::checkKill when the fault plan
/// crashes a rank. Deliberately NOT derived from parad::Error or
/// std::exception: application-level catch handlers must never observe or
/// swallow it — only Machine::run's recovery loop does.
struct RankKillSignal {
  int rank = -1;
  double clock = 0;   // virtual ns at which the crash fired
  int killIndex = 0;  // which crash of this rank fired (fault-plan cursor)
};

/// One snapshot of the machine at a collective boundary.
struct Checkpoint {
  int epoch = -1;               // capture ordinal across the whole run
  std::uint64_t boundary = 0;   // global collective ordinal it was taken at
  double releaseClock = 0;      // collective release time (post write cost)
  std::uint64_t allocSeq = 0;   // fault-plan allocation cursor
  std::uint64_t liveBytes = 0;  // memory-manager live-byte counter
  // Byte-for-byte copies of every memory object (header, payload and
  // atomic-line contention state). Freed objects are captured too (empty
  // payload, freed flag set) so a restore reinstates use-after-free
  // trapping exactly.
  std::vector<MemObject> objects;
  Fabric::SendSeqMap sendSeq;   // fabric per-flow sequence numbers
  Fabric::RecvSeqMap recvSeq;
  RunStats stats;
  // Payload accounting: bytes of *live* objects only — the checkpoint writes
  // exactly the plan-identified live set, so its size shrinks when the
  // CachePlan chooses recompute over caching (tested in test_checkpoint).
  std::uint64_t payloadBytes = 0;
  std::uint64_t cacheBytes = 0;   // subset from AD-cache objects
  std::uint64_t shadowBytes = 0;  // subset from shadow (derivative) objects
};

class CheckpointManager {
 public:
  CheckpointManager(const FaultConfig& fc, const CostModel& cost,
                    MemoryManager& mem, RunStats& stats)
      : cfg_(fc), cost_(cost), mem_(mem), stats_(stats) {}

  /// Captures the run-start memory image (epoch -1). Replay-from-zero
  /// restores this before re-running the rank functions, so a replay sees
  /// exactly the memory the original attempt saw.
  void captureBaseImage(std::uint64_t allocSeq);

  /// Wires the per-attempt fabric and fault-plan allocation cursor; resets
  /// the boundary ordinal for the new attempt. Seek state armed by
  /// planRecovery survives into the next attempt on purpose.
  void beginAttempt(Fabric* fabric, std::uint64_t* allocSeq);
  /// Drops the per-attempt pointers (the fabric dies with the attempt; the
  /// manager outlives it for post-run inspection).
  void endAttempt() {
    fabric_ = nullptr;
    allocSeq_ = nullptr;
  }

  /// Collective-boundary hook (installed on the fabric; runs in the
  /// last-arriving rank). Normal execution: captures a checkpoint every
  /// `ckpt_interval`-th boundary, charging the write cost to the release
  /// time. During a recovery replay: applies the saved checkpoint when the
  /// seek reaches its boundary ordinal and jumps the release time to the
  /// recovery resume clock.
  void onBoundary(double& releaseTime);

  bool hasCheckpoint() const { return latest_.epoch >= 0; }
  const Checkpoint& latest() const { return latest_; }
  /// Recovery events performed so far — full rollbacks *and* elastic
  /// migrations; the retry budget bounds their total.
  int restores() const { return static_cast<int>(trail_.size()); }
  const std::vector<RestoreEvent>& trail() const { return trail_; }

  /// Rolls the machine back for one recovery attempt: restores the run-start
  /// image, preserves the resilience counters, arms the seek to latest(),
  /// records the RestoreEvent, and returns the virtual clock the replay will
  /// resume from at the restore point (kill detection + restore cost).
  ///
  /// With `elastic` set the same deterministic replay-and-seek machinery is
  /// reused, but the modeled cost is a shard *migration* — the dead rank's
  /// 1/nranks share of the checkpoint payload moves to a survivor — instead
  /// of a full restore, and the event is accounted as an elastic migration
  /// (stats_.elasticMigrations) rather than a restore. The caller (Machine)
  /// re-homes the dead rank's persona onto the surviving host, so the replay
  /// continues on n-1 modeled ranks.
  double planRecovery(const RankKillSignal& kill, bool elastic = false,
                      int nranks = 1);

  /// Durable mode (DESIGN.md §16), armed when cfg_.ckptDir is non-empty.
  /// Opens the io::DurableStore over the directory (record fingerprint =
  /// programFingerprint(), a content hash of the run-start image and rank
  /// count, so epochs of a different job are detected as stale), then seeds
  /// `latest_` from the newest epoch that survives validation AND
  /// deserialization — corrupt, torn, version-skewed, or stale files are
  /// skipped with a remark and the next-older epoch is tried; with none
  /// valid the run cold-starts. A successful seed arms the replay-and-seek
  /// machinery exactly like planRecovery (the resume is recorded in the
  /// trail with killedRank -1 and counted in stats.durableResumes as well
  /// as stats.restores) and returns the resume clock; returns a negative
  /// value on a cold start. Call after captureBaseImage.
  double openDurable(int nranks);
  bool durable() const { return store_ != nullptr; }
  const io::DurableStore* store() const { return store_.get(); }
  std::uint64_t programFingerprint() const { return programFp_; }
  /// Structured human-readable remarks from the durable path (skipped
  /// epochs with reasons, failed publishes, the resume decision).
  const std::vector<std::string>& remarks() const { return remarks_; }

  /// Per-capture summary, for tests and the checkpoint bench.
  struct CaptureLog {
    int epoch = 0;
    std::uint64_t boundary = 0;
    std::uint64_t bytes = 0;       // live payload bytes written
    std::uint64_t cacheBytes = 0;  // AD-cache subset
  };
  const std::vector<CaptureLog>& captures() const { return log_; }

  // ---- unit-test surface -------------------------------------------------
  /// Deterministic byte serialization of a checkpoint (round-trip tested).
  std::vector<std::uint8_t> serialize(const Checkpoint& cp) const;
  Checkpoint deserialize(const std::vector<std::uint8_t>& bytes) const;
  /// Applies `cp` to the live machine immediately (memory, fabric seqnos,
  /// alloc cursor, stats), outside the seek path.
  void restoreNow(const Checkpoint& cp);

 private:
  Checkpoint capture(std::uint64_t boundary) const;
  void applyMemory(const Checkpoint& cp);
  void applyStats(const RunStats& snap);
  void apply(const Checkpoint& cp);
  void publishDurable();

  FaultConfig cfg_;
  CostModel cost_;
  MemoryManager& mem_;
  RunStats& stats_;
  Fabric* fabric_ = nullptr;
  std::uint64_t* allocSeq_ = nullptr;
  std::uint64_t boundaryOrdinal_ = 0;  // collectives seen this attempt
  int nextEpoch_ = 0;
  Checkpoint base_;    // run-start image (epoch -1)
  Checkpoint latest_;  // most recent boundary checkpoint
  bool seeking_ = false;
  std::uint64_t seekTarget_ = 0;
  double seekResumeClock_ = 0;
  std::vector<RestoreEvent> trail_;
  std::vector<CaptureLog> log_;
  std::unique_ptr<io::DurableStore> store_;
  std::uint64_t programFp_ = 0;
  std::vector<std::string> remarks_;
};

}  // namespace parad::psim
