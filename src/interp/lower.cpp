#include "src/interp/lower.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>

#include "src/support/env.h"
#include "src/support/hash.h"

namespace parad::interp {

using ir::Op;

// ---------------------------------------------------------------------------
// Structural fingerprint (FNV-1a over everything a pass can mutate).

namespace {

using hash::Fnv;

void hashRegion(const ir::Region& r, Fnv& f);

void hashInst(const ir::Inst& in, Fnv& f) {
  f.mix(static_cast<std::uint64_t>(in.op));
  f.mix(in.result);
  f.mix(static_cast<std::uint64_t>(in.operands.size()));
  for (int o : in.operands) f.mix(o);
  f.mix(in.fconst);
  f.mix(in.iconst);
  f.mix(in.sym);
  f.mix(static_cast<std::uint64_t>(in.flags));
  f.mix(static_cast<std::uint64_t>(in.regions.size()));
  for (const ir::Region& r : in.regions) hashRegion(r, f);
}

void hashRegion(const ir::Region& r, Fnv& f) {
  f.mix(static_cast<std::uint64_t>(r.args.size()));
  for (int a : r.args) f.mix(a);
  f.mix(static_cast<std::uint64_t>(r.insts.size()));
  for (const ir::Inst& in : r.insts) hashInst(in, f);
}

}  // namespace

std::uint64_t fingerprint(const ir::Function& fn) {
  Fnv f;
  f.mix(fn.name);
  f.mix(static_cast<std::uint64_t>(fn.paramTypes.size()));
  for (ir::Type t : fn.paramTypes) f.mix(static_cast<std::uint64_t>(t));
  f.mix(static_cast<std::uint64_t>(fn.retType));
  f.mix(static_cast<std::uint64_t>(fn.valueTypes.size()));
  for (ir::Type t : fn.valueTypes) f.mix(static_cast<std::uint64_t>(t));
  hashRegion(fn.body, f);
  return f.h;
}

// ---------------------------------------------------------------------------
// Lowering.

namespace {

// Ops eligible for superinstruction pairing: region-free frame arithmetic
// whose execution touches only the frame and the worker clock (no memory
// manager, no scheduler state, no thread identity). Two adjacent fusable
// instructions share one dispatch in the executor; every op listed here is
// an `A` entry of exec.cpp's PARAD_EXEC_OPS, with a fused-slot handler.
bool fusableOp(Op op) {
  switch (op) {
    case Op::FAdd: case Op::FSub: case Op::FMul: case Op::FDiv:
    case Op::FNeg: case Op::Sqrt: case Op::Sin: case Op::Cos:
    case Op::Exp: case Op::Log: case Op::Cbrt: case Op::Pow:
    case Op::FAbs: case Op::FMin: case Op::FMax:
    case Op::IAdd: case Op::ISub: case Op::IMul: case Op::IDiv:
    case Op::IRem: case Op::IMinOp: case Op::IMaxOp:
    case Op::ICmpEq: case Op::ICmpNe: case Op::ICmpLt: case Op::ICmpLe:
    case Op::ICmpGt: case Op::ICmpGe:
    case Op::FCmpLt: case Op::FCmpLe: case Op::FCmpGt: case Op::FCmpGe:
    case Op::FCmpEq:
    case Op::BAnd: case Op::BOr: case Op::BNot: case Op::Select:
    case Op::IToF: case Op::FToI: case Op::PtrOffset:
      return true;
    default:
      return false;
  }
}

class Lowerer {
 public:
  Lowerer(const ir::Module& mod, ExecModule& xm) : mod_(mod), xm_(xm) {}

  void lowerClosure(const ir::Function& entry) {
    xm_.programs.emplace_back();
    xm_.indexOf.emplace(entry.name, 0);
    lowerFunction(entry, 0);
    while (!pending_.empty()) {
      std::string name = pending_.front();
      pending_.pop_front();
      lowerFunction(mod_.get(name), xm_.indexOf.at(name));
    }
  }

 private:
  /// Program index for a callee name; enqueues unseen functions. Returns -1
  /// when the module has no such function (the call site becomes a trap).
  std::int32_t programIndexFor(const std::string& name) {
    auto it = xm_.indexOf.find(name);
    if (it != xm_.indexOf.end()) return it->second;
    if (!mod_.has(name)) return -1;
    std::int32_t idx = static_cast<std::int32_t>(xm_.programs.size());
    xm_.programs.emplace_back();
    xm_.indexOf.emplace(name, idx);
    pending_.push_back(name);
    return idx;
  }

  std::int32_t addTrap(std::string msg) {
    xm_.trapMsgs.push_back(std::move(msg));
    return static_cast<std::int32_t>(xm_.trapMsgs.size() - 1);
  }

  void lowerFunction(const ir::Function& fn, std::int32_t idx) {
    ExecProgram p;
    p.name = fn.name;
    p.numValues = fn.numValues();
    p.numParams = fn.paramTypes.size();
    p.paramSlots.assign(fn.body.args.begin(), fn.body.args.end());
    p.fingerprint = fingerprint(fn);
    p.entryBlock = lowerRegion(fn.body, p);
    xm_.programs[static_cast<std::size_t>(idx)] = std::move(p);
  }

  /// Two-phase region flattening: first append this region's instructions as
  /// one contiguous run (so a block is a [begin, end) range and a fork body
  /// can be segmented by scanning for top-level barriers), then lower nested
  /// regions — each into its own contiguous run further down the array — and
  /// patch the parents' block ids.
  std::int32_t lowerRegion(const ir::Region& r, ExecProgram& p) {
    std::int32_t blockId = static_cast<std::int32_t>(p.blocks.size());
    p.blocks.emplace_back();
    std::int32_t begin = static_cast<std::int32_t>(p.code.size());
    // Constants are folded out of the stream: their values go into the
    // program's frame-initialization table and each kept instruction records
    // how many folded consts precede it, so the executor's dispatch count
    // stays bit-identical to the tree-walker's.
    std::vector<std::int32_t> codeIdx(r.insts.size(), -1);
    std::int32_t pending = 0;
    // Superinstruction pairing: a fusable instruction (region-free frame
    // arithmetic, see fusableOp) adjacent to another fusable one rides in
    // the previous slot's second position instead of getting its own.
    // Folded consts between them don't break adjacency (consts2 keeps the
    // count); anything else — including barriers, so a fork segment can
    // never split a pair — does.
    std::int32_t lastFusable = -1;  // code index with an empty second slot
    for (std::size_t i = 0; i < r.insts.size(); ++i) {
      const ir::Inst& in = r.insts[i];
      if ((in.op == Op::ConstF || in.op == Op::ConstI ||
           in.op == Op::ConstB) &&
          in.result >= 0) {
        ConstInit ci;
        ci.slot = in.result;
        ci.isF = in.op == Op::ConstF;
        ci.f = in.fconst;
        ci.i = in.iconst;
        p.constInits.push_back(ci);
        ++pending;
        continue;
      }
      ExecInst x = lowerInst(in, p);
      x.constsBefore = pending;
      pending = 0;
      if (lastFusable >= 0 && fusableOp(in.op)) {
        ExecInst& prev = p.code[static_cast<std::size_t>(lastFusable)];
        prev.op2 = static_cast<std::int16_t>(in.op);
        prev.nOps2 = x.nOps;
        prev.result2 = x.result;
        prev.a2 = x.a;
        prev.consts2 = x.constsBefore;
        lastFusable = -1;  // pairs only, no triples
        continue;  // fusable ops have no regions; codeIdx[i] is never read
      }
      codeIdx[i] = static_cast<std::int32_t>(p.code.size());
      p.code.push_back(x);
      lastFusable = fusableOp(in.op) ? codeIdx[i] : -1;
    }
    std::int32_t end = static_cast<std::int32_t>(p.code.size());
    {
      ExecBlock& b = p.blocks[static_cast<std::size_t>(blockId)];
      b.begin = begin;
      b.end = end;
      b.arg = r.args.empty() ? -1 : r.args[0];
      b.trailingConsts = pending;
    }

    for (std::size_t i = 0; i < r.insts.size(); ++i) {
      const ir::Inst& in = r.insts[i];
      if (in.regions.empty() || in.op == Op::OmpParallelFor) continue;
      std::int32_t blockA = lowerRegion(in.regions[0], p);
      std::int32_t blockB =
          in.regions.size() > 1 ? lowerRegion(in.regions[1], p) : -1;
      // Re-index: the nested lowering may have grown p.code/p.blocks.
      ExecInst& xi = p.code[static_cast<std::size_t>(codeIdx[i])];
      xi.blockA = blockA;
      xi.blockB = blockB;
      if (in.op == Op::Fork) segmentFork(xi, blockA, p);
    }
    return blockId;
  }

  ExecInst lowerInst(const ir::Inst& in, ExecProgram& p) {
    ExecInst x;
    x.op = in.op;
    x.result = in.result;
    x.fconst = in.fconst;
    x.iconst = in.iconst;
    x.flags = in.flags;
    x.nOps = static_cast<std::uint16_t>(in.operands.size());
    if (in.operands.size() <= static_cast<std::size_t>(ExecInst::kInlineOps)) {
      for (std::size_t i = 0; i < in.operands.size(); ++i)
        x.a[i] = in.operands[i];
    } else {
      x.poolBase = static_cast<std::int32_t>(p.pool.size());
      p.pool.insert(p.pool.end(), in.operands.begin(), in.operands.end());
    }
    switch (in.op) {
      case Op::Call: {
        x.callee = programIndexFor(in.sym);
        if (x.callee < 0) {
          x.trap = addTrap("no function named " + in.sym);
        } else {
          const ir::Function& callee = mod_.get(in.sym);
          if (in.operands.size() != callee.paramTypes.size())
            x.trap = addTrap("wrong argument count calling @" + in.sym);
        }
        break;
      }
      case Op::CallIndirect:
        x.trap = addTrap(
            "call.indirect reached the interpreter; run the "
            "resolve-indirect-calls pass first (jlite symbol table)");
        break;
      case Op::OmpParallelFor:
        x.trap = addTrap(
            "omp.parallel.for reached the interpreter; run the lower-omp "
            "pass first");
        break;
      default: break;
    }
    return x;
  }

  /// Splits a freshly-lowered fork body block into barrier-delimited
  /// segments (the barrier instructions themselves are skipped, exactly as
  /// the tree-walker's structural segmentation never executes them) and
  /// records the per-thread private value set in the program pool.
  void segmentFork(ExecInst& xi, std::int32_t bodyBlock, ExecProgram& p) {
    // The body block's range holds exactly the region's top-level
    // instructions (nested bodies live in their own ranges), so scanning it
    // finds exactly the top-level barriers.
    ExecBlock body = p.blocks[static_cast<std::size_t>(bodyBlock)];
    xi.segBase = static_cast<std::int32_t>(p.segments.size());
    std::int32_t segStart = body.begin;
    for (;;) {
      std::int32_t segEnd = segStart;
      while (segEnd < body.end && p.code[static_cast<std::size_t>(segEnd)].op !=
                                      Op::BarrierOp)
        ++segEnd;
      ExecSegment s;
      s.begin = segStart;
      s.end = segEnd;
      // Folded consts between the segment's last kept instruction and its
      // delimiter (the barrier's constsBefore, or the block's trailing count
      // for the final segment) still count as executed per thread.
      s.trailingConsts =
          segEnd < body.end
              ? p.code[static_cast<std::size_t>(segEnd)].constsBefore
              : body.trailingConsts;
      p.segments.push_back(s);
      if (segEnd == body.end) break;
      segStart = segEnd + 1;
    }
    xi.segCount = static_cast<std::int32_t>(p.segments.size()) - xi.segBase;

    // Per-thread private storage: a value can only be read across a barrier
    // (by the same thread, after every other thread ran the same segment and
    // overwrote the shared frame slot) when a non-final segment defines it at
    // the body's top level. Values defined in nested regions are scoped to
    // one execution of that region, final-segment values die at the join, and
    // folded constants are never written after frame setup.
    xi.privBase = static_cast<std::int32_t>(p.pool.size());
    for (std::int32_t si = 0; si + 1 < xi.segCount; ++si) {
      const ExecSegment& s =
          p.segments[static_cast<std::size_t>(xi.segBase + si)];
      for (std::int32_t pc = s.begin; pc < s.end; ++pc) {
        const ExecInst& x = p.code[static_cast<std::size_t>(pc)];
        if (x.result >= 0) p.pool.push_back(x.result);
        if (x.op2 >= 0 && x.result2 >= 0) p.pool.push_back(x.result2);
      }
    }
    xi.privCount = static_cast<std::int32_t>(p.pool.size()) - xi.privBase;
  }

  const ir::Module& mod_;
  ExecModule& xm_;
  std::deque<std::string> pending_;
};

}  // namespace

std::shared_ptr<const ExecModule> lower(const ir::Module& mod,
                                        const ir::Function& entry) {
  auto xm = std::make_shared<ExecModule>();
  Lowerer(mod, *xm).lowerClosure(entry);
  return xm;
}

std::shared_ptr<const ExecModule> compileClosure(const ir::Module& mod,
                                                 const ir::Function& fn,
                                                 std::uint64_t runId) {
  if (mod.has(fn.name) && &mod.get(fn.name) == &fn)
    return ProgramCache::global().lookup(mod, fn, runId);
  // A function object not registered in the module (e.g. a locally-built
  // kernel passed by reference): lower uncached.
  return lower(mod, fn);
}

// ---------------------------------------------------------------------------
// ProgramCache.

std::size_t execModuleBytes(const ExecModule& xm) {
  std::size_t total = sizeof(ExecModule);
  for (const ExecProgram& p : xm.programs) {
    total += sizeof(ExecProgram) + p.name.size();
    total += p.paramSlots.size() * sizeof(std::int32_t);
    total += p.code.size() * sizeof(ExecInst);
    total += p.blocks.size() * sizeof(ExecBlock);
    total += p.segments.size() * sizeof(ExecSegment);
    total += p.constInits.size() * sizeof(ConstInit);
    total += p.pool.size() * sizeof(std::int32_t);
  }
  for (const auto& kv : xm.indexOf)
    total += kv.first.size() + sizeof(std::int32_t);
  for (const std::string& m : xm.trapMsgs) total += m.size();
  return total;
}

ProgramCache& ProgramCache::global() {
  static ProgramCache cache;
  // Applied the first time it is seen set; until then every call reads it.
  static std::atomic<bool> capped{false};
  if (!capped.load(std::memory_order_relaxed)) {
    if (std::optional<std::uint64_t> cap =
            env::count("program cache", "PARAD_PROGRAM_CACHE_BYTES")) {
      cache.setCapacityBytes(static_cast<std::size_t>(*cap));
      capped.store(true, std::memory_order_relaxed);
    }
  }
  return cache;
}

static bool stillValid(const ir::Module& mod, const ir::Function& entry,
                       const ExecModule& xm) {
  if (fingerprint(entry) != xm.programs[0].fingerprint) return false;
  for (std::size_t i = 1; i < xm.programs.size(); ++i) {
    const ExecProgram& p = xm.programs[i];
    if (!mod.has(p.name) || fingerprint(mod.get(p.name)) != p.fingerprint)
      return false;
  }
  return true;
}

void ProgramCache::eraseLocked(
    Shard& sh, std::unordered_map<Key, Entry, KeyHash>::iterator it) {
  sh.bytes -= it->second.bytes;
  sh.lru.erase(it->second.lruIt);
  sh.map.erase(it);
}

void ProgramCache::evictOverCapLocked(Shard& sh) {
  std::size_t cap = capacityBytes_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  // The global budget is split evenly; a fresh insert always survives (the
  // loop keeps at least one entry), so an oversized closure degrades to
  // relower-per-use instead of failing.
  std::size_t perShard = std::max<std::size_t>(cap / kShards, 1);
  std::uint64_t dropped = 0;
  while (sh.bytes > perShard && sh.map.size() > 1) {
    auto victim = sh.map.find(sh.lru.back());
    eraseLocked(sh, victim);
    ++dropped;
  }
  if (dropped) evictions_.fetch_add(dropped, std::memory_order_relaxed);
}

std::shared_ptr<const ExecModule> ProgramCache::lookup(
    const ir::Module& mod, const ir::Function& entry, std::uint64_t runId) {
  Key k{&mod, entry.name};
  Shard& sh = shardOf(k);
  std::shared_ptr<const ExecModule> cached;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(k);
    if (it != sh.map.end()) {
      cached = it->second.xm;
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second.lruIt);  // touch
      if (runId != 0 && it->second.validRun == runId) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return cached;  // validated earlier in this run; the IR is read-only
      }
    }
  }
  if (cached != nullptr) {
    // Revalidate outside the shard lock: fingerprinting walks the (read-only
    // during execution) IR and must not serialize the whole shard behind one
    // large closure.
    revalidations_.fetch_add(1, std::memory_order_relaxed);
    bool valid = stillValid(mod, entry, *cached);
    std::lock_guard<std::mutex> lock(sh.mu);
    auto it = sh.map.find(k);
    // Only stamp or drop the entry we validated; a concurrent relowering may
    // already have replaced it with a fresh one.
    bool same = it != sh.map.end() && it->second.xm == cached;
    if (valid) {
      if (same) it->second.validRun = runId;
      hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    if (same) eraseLocked(sh, it);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  auto xm = lower(mod, entry);
  std::size_t bytes = execModuleBytes(*xm);
  std::lock_guard<std::mutex> lock(sh.mu);
  auto it = sh.map.find(k);
  if (it != sh.map.end()) {
    // A concurrent miss beat us to the insert; replace (last-insert wins,
    // both closures are equivalent).
    sh.bytes -= it->second.bytes;
    it->second.xm = xm;
    it->second.bytes = bytes;
    it->second.validRun = runId;
    sh.lru.splice(sh.lru.begin(), sh.lru, it->second.lruIt);
  } else {
    sh.lru.push_front(k);
    sh.map.emplace(std::move(k), Entry{xm, bytes, sh.lru.begin(), runId});
  }
  sh.bytes += bytes;
  evictOverCapLocked(sh);
  return xm;
}

void ProgramCache::invalidate(const std::string& fnName) {
  std::uint64_t dropped = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto it = sh.map.begin(); it != sh.map.end();) {
      if (it->second.xm->indexOf.count(fnName)) {
        eraseLocked(sh, it++);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void ProgramCache::invalidateModule(const void* mod) {
  std::uint64_t dropped = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    for (auto it = sh.map.begin(); it != sh.map.end();) {
      if (static_cast<const void*>(it->first.mod) == mod) {
        eraseLocked(sh, it++);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void ProgramCache::clear() {
  std::uint64_t dropped = 0;
  for (Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    dropped += sh.map.size();
    sh.map.clear();
    sh.lru.clear();
    sh.bytes = 0;
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

std::size_t ProgramCache::bytesInUse() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    total += sh.bytes;
  }
  return total;
}

}  // namespace parad::interp
