// Memory objects of the virtual machine.
//
// All interpreted memory lives in MemObjects owned by a MemoryManager.
// A runtime pointer is an (object id, element offset) pair; the element type
// is known statically from the IR. Objects carry a NUMA home socket
// (first-touch: the socket of the allocating worker) used by the cost model,
// and flags identifying AD cache and shadow allocations for the statistics
// the ablation benches report. Beside the objects the manager keeps a flat
// view table (ObjView) that generated code reads in place for its inline
// f64 load/store fast path (src/interp/codegen_abi.h mirrors the layout).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/type.h"
#include "src/psim/machine.h"
#include "src/support/common.h"

namespace parad::psim {

/// Runtime pointer: object id plus element offset.
struct RtPtr {
  std::int32_t obj = -1;
  i64 off = 0;
  bool null() const { return obj < 0; }
};

struct MemObject {
  ir::Type elem = ir::Type::F64;
  i64 count = 0;
  int homeSocket = 0;
  bool freed = false;
  bool isCache = false;   // allocated by the AD cache planner
  bool isShadow = false;  // shadow (derivative) object
  // Exactly one storage vector is used, selected by `elem`.
  std::vector<double> f;
  std::vector<i64> i;
  std::vector<RtPtr> p;
  // Atomic-contention tracking per modeled cache line. A line observed under
  // atomic RMWs from more than one core is marked shared; every atomic on a
  // shared line pays a line-transfer (ping-pong) cost, since concurrent
  // threads would bounce it continuously. We deliberately do not serialize
  // against the previous op's completion time: virtual threads execute
  // sequentially in wall time with overlapping virtual windows, so a
  // high-water-mark model would turn bounded line bouncing into full
  // serialization (see DESIGN.md).
  struct AtomicLine {
    int lastCore = -1;
    bool hot = false;  // rapidly alternating between cores: pays per access
    int streak = 0;      // consecutive same-core accesses
    int transitions = 0; // ownership changes since the line was last owned
  };
  std::vector<AtomicLine> atomicLines;
  AtomicLine& atomicLine(i64 elemIndex) {
    if (atomicLines.empty()) {
      i64 lines = count / 8 + 1;
      atomicLines.assign(static_cast<std::size_t>(lines < 4096 ? lines : 4096),
                         AtomicLine{});
    }
    return atomicLines[static_cast<std::size_t>(elemIndex / 8) %
                       atomicLines.size()];
  }

  i64 bytes() const { return count * 8; }
};

/// Flat view of one object for native code: payload base, element count
/// (0 once freed, so every index fails the bounds check and takes the slow
/// path that raises use-after-free), element type and home socket.
struct ObjView {
  void* data = nullptr;
  i64 count = 0;
  std::int32_t elem = 0;  // static_cast<int>(ir::Type)
  std::int32_t home = 0;
};
/// Header of the view table. Generated code re-reads it on every access: an
/// Alloc in the middle of a compiled range can grow, and so move, the table.
struct ObjViewTable {
  const ObjView* data = nullptr;
  i64 n = 0;
};

class MemoryManager {
 public:
  explicit MemoryManager(RunStats& stats) : stats_(stats) {}

  RtPtr alloc(ir::Type elem, i64 count, int homeSocket, bool isCache = false,
              bool isShadow = false) {
    PARAD_CHECK(count >= 0, "negative allocation size");
    auto obj = std::make_unique<MemObject>();
    obj->elem = elem;
    obj->count = count;
    obj->homeSocket = homeSocket;
    obj->isCache = isCache;
    obj->isShadow = isShadow;
    switch (elem) {
      case ir::Type::F64: obj->f.assign(static_cast<std::size_t>(count), 0.0); break;
      case ir::Type::I64: obj->i.assign(static_cast<std::size_t>(count), 0); break;
      case ir::Type::PtrF64: obj->p.assign(static_cast<std::size_t>(count), RtPtr{}); break;
      default: fail("alloc: unsupported element type");
    }
    stats_.allocBytes += static_cast<std::uint64_t>(obj->bytes());
    if (isCache) stats_.cacheBytes += static_cast<std::uint64_t>(obj->bytes());
    liveBytes_ += static_cast<std::uint64_t>(obj->bytes());
    if (liveBytes_ > stats_.peakLiveBytes) stats_.peakLiveBytes = liveBytes_;
    objects_.push_back(std::move(obj));
    views_.push_back(viewOf(*objects_.back()));
    syncTable();
    return RtPtr{static_cast<std::int32_t>(objects_.size() - 1), 0};
  }

  MemObject& get(RtPtr p) {
    PARAD_CHECK(!p.null() && static_cast<std::size_t>(p.obj) < objects_.size(),
                "dangling pointer (object id ", p.obj, ")");
    MemObject& o = *objects_[static_cast<std::size_t>(p.obj)];
    PARAD_CHECK(!o.freed, "use after free (object id ", p.obj, ")");
    return o;
  }
  const MemObject& get(RtPtr p) const {
    return const_cast<MemoryManager*>(this)->get(p);
  }

  void free(RtPtr p) {
    MemObject& o = get(p);
    o.freed = true;
    liveBytes_ -= static_cast<std::uint64_t>(o.bytes());
    // Release the payload eagerly; the header stays so dangling uses trap.
    o.f.clear(); o.f.shrink_to_fit();
    o.i.clear(); o.i.shrink_to_fit();
    o.p.clear(); o.p.shrink_to_fit();
    views_[static_cast<std::size_t>(p.obj)] = viewOf(o);
  }

  /// Bounds-checked element accessors (f64 / i64 / ptr storage).
  double& atF(RtPtr p, i64 idx) {
    MemObject& o = get(p);
    i64 k = p.off + idx;
    PARAD_CHECK(o.elem == ir::Type::F64 && k >= 0 && k < o.count,
                "f64 access out of bounds: index ", k, " of ", o.count);
    return o.f[static_cast<std::size_t>(k)];
  }
  i64& atI(RtPtr p, i64 idx) {
    MemObject& o = get(p);
    i64 k = p.off + idx;
    PARAD_CHECK(o.elem == ir::Type::I64 && k >= 0 && k < o.count,
                "i64 access out of bounds: index ", k, " of ", o.count);
    return o.i[static_cast<std::size_t>(k)];
  }
  RtPtr& atP(RtPtr p, i64 idx) {
    MemObject& o = get(p);
    i64 k = p.off + idx;
    PARAD_CHECK(o.elem == ir::Type::PtrF64 && k >= 0 && k < o.count,
                "ptr access out of bounds: index ", k, " of ", o.count);
    return o.p[static_cast<std::size_t>(k)];
  }

  std::size_t numObjects() const { return objects_.size(); }
  /// The view table, kept in sync by every path below that creates, frees,
  /// truncates or reassigns an object.
  const ObjViewTable& views() const { return table_; }

  // --- Checkpoint/restart surface (src/psim/checkpoint.cpp) ---------------
  // Raw header+payload access by object index (including freed objects:
  // restore must reinstate their cleared payloads and freed flags exactly).
  const MemObject& objectAt(std::size_t idx) const {
    PARAD_CHECK(idx < objects_.size(), "objectAt: bad object index ", idx);
    return *objects_[idx];
  }
  /// Overwrites object `idx` (header and payload) with a snapshot image.
  void restoreObject(std::size_t idx, const MemObject& img) {
    PARAD_CHECK(idx < objects_.size(), "restoreObject: bad object index ",
                idx);
    *objects_[idx] = img;
    views_[idx] = viewOf(*objects_[idx]);
  }
  /// Drops every object allocated after the first `n` — used when rolling
  /// back to a snapshot taken before those allocations existed. Replay
  /// re-allocates them deterministically, re-receiving the same object ids.
  void truncateObjects(std::size_t n) {
    PARAD_CHECK(n <= objects_.size(), "truncateObjects: growing is invalid");
    objects_.resize(n);
    views_.resize(n);
    syncTable();
  }
  std::uint64_t liveBytes() const { return liveBytes_; }
  void setLiveBytes(std::uint64_t b) { liveBytes_ = b; }

 private:
  static ObjView viewOf(MemObject& o) {
    ObjView v;
    switch (o.elem) {
      case ir::Type::F64: v.data = o.f.data(); break;
      case ir::Type::I64: v.data = o.i.data(); break;
      default: v.data = o.p.data(); break;
    }
    v.count = o.freed ? 0 : o.count;
    v.elem = static_cast<std::int32_t>(o.elem);
    v.home = o.homeSocket;
    return v;
  }
  void syncTable() {
    table_.data = views_.data();
    table_.n = static_cast<i64>(views_.size());
  }

  std::vector<std::unique_ptr<MemObject>> objects_;
  std::vector<ObjView> views_;
  ObjViewTable table_;
  RunStats& stats_;
  std::uint64_t liveBytes_ = 0;
};

}  // namespace parad::psim
