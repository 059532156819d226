#include "src/interp/codegen.h"

#include <dirent.h>
#include <dlfcn.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <list>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "codegen_abi_embed.h"
#include "src/interp/backend.h"
#include "src/interp/codegen_abi.h"
#include "src/interp/exec.h"
#include "src/support/common.h"
#include "src/support/env.h"
#include "src/support/hash.h"

namespace parad::interp {

using ir::Op;

// Bumped whenever the emitter changes what it prints for the same closure.
// Part of the closure fingerprint, which keys artifacts in memory; on disk
// the emitted source is hashed into the name as well, so an emitter change
// made without a bump cannot load a stale object either.
constexpr std::uint64_t kGeneratorVersion = 3;

// The generated code's structs must alias the host's exactly — every frame,
// worker and return-value pointer crosses the ABI as a reinterpret_cast.
static_assert(sizeof(parad_cg_ptr) == sizeof(psim::RtPtr) &&
                  offsetof(parad_cg_ptr, obj) == offsetof(psim::RtPtr, obj) &&
                  offsetof(parad_cg_ptr, off) == offsetof(psim::RtPtr, off),
              "parad_cg_ptr must mirror psim::RtPtr");
static_assert(sizeof(parad_cg_val) == sizeof(RtVal),
              "parad_cg_val must mirror interp::RtVal");
static_assert(sizeof(parad_cg_worker) == sizeof(psim::WorkerCtx) &&
                  offsetof(parad_cg_worker, clock) ==
                      offsetof(psim::WorkerCtx, clock) &&
                  offsetof(parad_cg_worker, core) ==
                      offsetof(psim::WorkerCtx, core) &&
                  offsetof(parad_cg_worker, socket) ==
                      offsetof(psim::WorkerCtx, socket) &&
                  offsetof(parad_cg_worker, dilation) ==
                      offsetof(psim::WorkerCtx, dilation),
              "parad_cg_worker must mirror psim::WorkerCtx");
static_assert(sizeof(parad_cg_obj) == sizeof(psim::ObjView) &&
                  offsetof(parad_cg_obj, data) ==
                      offsetof(psim::ObjView, data) &&
                  offsetof(parad_cg_obj, count) ==
                      offsetof(psim::ObjView, count) &&
                  offsetof(parad_cg_obj, elem) ==
                      offsetof(psim::ObjView, elem) &&
                  offsetof(parad_cg_obj, home) ==
                      offsetof(psim::ObjView, home),
              "parad_cg_obj must mirror psim::ObjView");
static_assert(sizeof(parad_cg_objs) == sizeof(psim::ObjViewTable) &&
                  offsetof(parad_cg_objs, data) ==
                      offsetof(psim::ObjViewTable, data) &&
                  offsetof(parad_cg_objs, n) ==
                      offsetof(psim::ObjViewTable, n),
              "parad_cg_objs must mirror psim::ObjViewTable");
static_assert(sizeof(parad_cg_memcharge) ==
                      sizeof(psim::Machine::MemCharge) &&
                  offsetof(parad_cg_memcharge, sharers) ==
                      offsetof(psim::Machine::MemCharge, sharers) &&
                  offsetof(parad_cg_memcharge, local8) ==
                      offsetof(psim::Machine::MemCharge, local8) &&
                  offsetof(parad_cg_memcharge, remote8) ==
                      offsetof(psim::Machine::MemCharge, remote8),
              "parad_cg_memcharge must mirror psim::Machine::MemCharge");
static_assert(sizeof(int) == sizeof(std::int32_t) &&
                  PARAD_CG_ELEM_F64 == static_cast<int>(ir::Type::F64),
              "PARAD_CG_ELEM_F64 must be ir::Type::F64");

namespace {

// ---------------------------------------------------------------------------
// Range enumeration, shared between the emitter and the host-side id lookup
// so generated function ids and execRange interceptions always agree. A
// fork's body block is left out: execFork only ever runs its barrier
// segments, so that code would be emitted twice and never run.

struct CgRange {
  int prog;
  std::int32_t begin, end, trailing;
  std::int32_t block;  // ExecProgram::blocks index, or -1 for a segment
};

std::vector<CgRange> buildRangeTable(const ExecModule& xm) {
  std::vector<CgRange> t;
  for (std::size_t pi = 0; pi < xm.programs.size(); ++pi) {
    const ExecProgram& p = xm.programs[pi];
    int prog = static_cast<int>(pi);
    std::vector<bool> forkBody(p.blocks.size(), false);
    for (const ExecInst& in : p.code)
      if (in.op == Op::Fork)
        forkBody[static_cast<std::size_t>(in.blockA)] = true;
    for (std::size_t bi = 0; bi < p.blocks.size(); ++bi) {
      const ExecBlock& b = p.blocks[bi];
      if (!forkBody[bi])
        t.push_back({prog, b.begin, b.end, b.trailingConsts,
                     static_cast<std::int32_t>(bi)});
    }
    for (const ExecSegment& s : p.segments)
      t.push_back({prog, s.begin, s.end, s.trailingConsts, -1});
  }
  return t;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Source emitter. Every emitted op mirrors the exec engine's case exactly:
// the same advance-then-compute order, the same member writes, the same
// dispatch counting — so virtual clocks, values and RunStats stay
// bit-identical. Double and i64 constants are emitted as bit patterns to
// survive the text round-trip unchanged.
//
// Each range keeps its values in registers where it can:
//  - The worker's clock lives in a local (`clk`), and the cost products it
//    charges (`kc_*` = ct[k] * dilation, the exact product WorkerCtx::advance
//    forms) in locals computed once per entry; the clock is spilled to the
//    worker before every callback, nested range and exit and reloaded after
//    the ones that return.
//  - A slot is a C local of its range (`v<slot>`) when an inline-emitted
//    top-level instruction of the range defines it and only inline-emitted
//    top-level instructions of the same range read it; every other slot (a
//    parameter, a folded constant, a region argument, anything a host op
//    reads or writes, anything another range reads) stays in the frame F[].
//  - Each pointer slot's view-table row is resolved once (`rs<slot>` =
//    pd_res: payload base, element count, charge times dilation) at its first
//    Load/Store and again after every callback, which may allocate, free,
//    fork or roll memory back. The emitter tracks this while it writes the
//    range, which is straight-line: control flow only ever enters nested
//    ranges, and those are callbacks. An access is then one unsigned bounds
//    compare, the element access and `clk += charge`; everything the compare
//    rejects takes exec's own Load/Store and re-resolves.
//  - A Call whose callee frame fits on the native stack is a direct call of
//    the callee's entry range through a per-program wrapper (`c<prog>`).
// The prelude below is the whole runtime of a generated TU: it includes no
// headers (the compiler builtins call the same libm functions <cmath> would).

constexpr const char* kPrelude = R"PARAD_CG(
static inline double pd_f64(unsigned long long b) {
  double v; __builtin_memcpy(&v, &b, 8); return v; }
static inline long long pd_i64(unsigned long long b) {
  long long v; __builtin_memcpy(&v, &b, 8); return v; }

/* One pointer slot's resolved view-table row: the f64 payload base, the
 * element count and the 8-byte access charge times dilation (the double
 * Machine::chargeMem advances by). n == 0 declines every index: a bad or
 * freed object, a non-f64 element type or a stale charge memo all resolve
 * to it, so their accesses take the host path, which charges and fails
 * exactly like the exec engine. */
typedef struct pd_rs {
  double* b;
  unsigned long long n;
  double k;
} pd_rs;
__attribute__((noinline)) static void pd_res(parad_cg_ctx* c,
                                             const parad_cg_worker* W,
                                             int obj, pd_rs* r) {
  r->b = 0;
  r->n = 0;
  r->k = 0.0;
  const parad_cg_objs* t = c->objs;
  if ((unsigned long long)obj >= (unsigned long long)t->n) return;
  const parad_cg_obj* o = t->data + obj;
  if (o->elem != PARAD_CG_ELEM_F64) return;
  const parad_cg_memcharge* m = c->memo + o->home;
  if (m->sharers != c->workers[o->home]) return;
  r->b = (double*)o->data;
  r->n = (unsigned long long)o->count;
  r->k = (W->socket == o->home ? m->local8 : m->remote8) * W->dilation;
}
/* The slow paths: exec's own Load / Store, charged to this worker, then a
 * fresh resolution (the host may have refolded the charge memo). A load
 * writes only the loaded member of its destination, which starts as `d`;
 * the caller reloads the clock. */
__attribute__((noinline, cold)) static parad_cg_val pd_lds(
    parad_cg_ctx* c, parad_cg_worker* W, double clk, parad_cg_val p,
    long long i, parad_cg_val d, pd_rs* r) {
  W->clock = clk;
  c->api->load(c, &d, p, i);
  pd_res(c, W, p.u.p.obj, r);
  return d;
}
__attribute__((noinline, cold)) static double pd_sts(
    parad_cg_ctx* c, parad_cg_worker* W, double clk, parad_cg_val p,
    long long i, parad_cg_val v, pd_rs* r) {
  W->clock = clk;
  c->api->store(c, p, i, v);
  pd_res(c, W, p.u.p.obj, r);
  return W->clock;
}

)PARAD_CG";

// Cost-table entries by PARAD_CG_CT_* index; the suffix names the hoisted
// local (`kc_FLOP`, ...).
constexpr const char* kCostNames[PARAD_CG_CT_COUNT] = {
    "FLOP", "FDIV",   "INTOP",    "INTDIV",    "SPECIAL",
    "POW",  "MINMAX", "LOOPITER", "WORKSHARE", "GC",      "CALL"};

// A directly-called callee's frame lives on the native stack. A rank runs
// on an 8 MiB fiber stack and may nest maxCallDepth (512 by default) calls,
// which leaves 16 KiB per level; half of it is kept for the range
// functions' own stack frames. Larger callees take the host call path,
// whose frames live on the heap.
constexpr std::size_t kNativeFrameBytes = (std::size_t{8} << 20) / 512 / 2;

// Machine-state instructions: executed host-side through the exec engine's
// own execComplexInst, bit-identical by construction. Their operands and
// results always live in the frame.
bool isComplexOp(Op op) {
  switch (op) {
    case Op::Alloc: case Op::Free: case Op::AtomicAddF: case Op::Memset0:
    case Op::Spawn: case Op::SyncOp: case Op::MpIsend: case Op::MpIrecv:
    case Op::MpWaitOp: case Op::MpSend: case Op::MpRecv: case Op::MpAllreduce:
    case Op::MpBarrier: case Op::JlAllocArray: case Op::ParallelFor:
    case Op::Fork:
      return true;
    default:
      return false;
  }
}

/// Where each slot of one program is defined and read, for the C-local
/// decision.
struct SlotUses {
  struct Use {
    std::int32_t def = -1;  // pc of the inline-emitted defining instruction
    std::int32_t lo = std::numeric_limits<std::int32_t>::max(), hi = -1;
    bool pinned = false;  // a region argument, or a host op reads / writes it
  };
  std::vector<Use> use;

  explicit SlotUses(const ExecProgram& p)
      : use(static_cast<std::size_t>(p.numValues)) {
    auto at = [&](std::int32_t s) -> Use& {
      return use[static_cast<std::size_t>(s)];
    };
    for (const ExecBlock& b : p.blocks)
      if (b.arg >= 0) at(b.arg).pinned = true;
    for (std::int32_t pc = 0; pc < static_cast<std::int32_t>(p.code.size());
         ++pc) {
      const ExecInst& in = p.code[static_cast<std::size_t>(pc)];
      bool host = isComplexOp(in.op);
      const std::int32_t* ops =
          in.poolBase >= 0 ? p.pool.data() + in.poolBase : in.a.data();
      auto read = [&](std::int32_t s) {
        Use& u = at(s);
        if (host) u.pinned = true;
        u.lo = std::min(u.lo, pc);
        u.hi = std::max(u.hi, pc);
      };
      for (int i = 0; i < in.nOps; ++i) read(ops[i]);
      if (in.result >= 0) {
        if (host)
          at(in.result).pinned = true;
        else
          at(in.result).def = pc;
      }
      if (in.op2 >= 0) {
        for (int i = 0; i < in.nOps2; ++i)
          read(in.a2[static_cast<std::size_t>(i)]);
        if (in.result2 >= 0) at(in.result2).def = pc;
      }
    }
  }

  /// Whether `s` can be a C local of the range [begin, end).
  bool local(std::int32_t s, std::int32_t begin, std::int32_t end) const {
    const Use& u = use[static_cast<std::size_t>(s)];
    return !u.pinned && u.def >= begin && u.def < end &&
           (u.hi < 0 || (u.lo >= begin && u.hi < end));
  }
};

class SourceEmitter {
 public:
  explicit SourceEmitter(const ExecModule& xm) : xm_(xm) {
    for (const ExecProgram& p : xm.programs) {
      uses_.emplace_back(p);
      blockRange_.emplace_back(p.blocks.size(), -1);
    }
    table_ = buildRangeTable(xm);
    for (std::size_t id = 0; id < table_.size(); ++id)
      if (table_[id].block >= 0)
        blockRange_[static_cast<std::size_t>(table_[id].prog)]
                   [static_cast<std::size_t>(table_[id].block)] =
                       static_cast<int>(id);
  }

  std::string emit(std::uint64_t fp) {
    out_ += "// parad codegen output (generator v" +
            std::to_string(kGeneratorVersion) + ") for closure @" +
            xm_.programs[0].name + " — do not edit\n";
    out_ += kCodegenAbiHeader;
    out_ += kPrelude;
    for (std::size_t id = 0; id < table_.size(); ++id)
      out_ += "static int r" + std::to_string(id) +
              "(parad_cg_ctx*, parad_cg_val*, parad_cg_worker*);\n";
    out_ += "\n";
    std::vector<bool> called(xm_.programs.size(), false);
    for (const ExecProgram& p : xm_.programs)
      for (const ExecInst& in : p.code)
        if (in.op == Op::Call && in.trap < 0 && nativeCall(in.callee))
          called[static_cast<std::size_t>(in.callee)] = true;
    for (std::size_t pi = 0; pi < called.size(); ++pi)
      if (called[pi]) emitCallee(static_cast<int>(pi));
    for (std::size_t id = 0; id < table_.size(); ++id)
      emitRange(static_cast<int>(id), table_[id]);
    out_ += "extern \"C\" unsigned long long parad_cg_abi(void) { return "
            "PARAD_CG_ABI_VERSION; }\n";
    out_ += "extern \"C\" unsigned long long parad_cg_fp(void) { return 0x" +
            hex64(fp) + "ull; }\n";
    out_ += "extern \"C\" int parad_cg_range(parad_cg_ctx* c, int id, "
            "parad_cg_val* F) {\n  parad_cg_worker* W = c->w;\n"
            "  switch (id) {\n";
    for (std::size_t id = 0; id < table_.size(); ++id)
      out_ += "    case " + std::to_string(id) + ": return r" +
              std::to_string(id) + "(c, F, W);\n";
    out_ += "  }\n  return -2;\n}\n";
    return std::move(out_);
  }

 private:
  int blockRangeId(int prog, std::int32_t blockId) const {
    return blockRange_[static_cast<std::size_t>(prog)]
                      [static_cast<std::size_t>(blockId)];
  }
  const ExecProgram& program(int prog) const {
    return xm_.programs[static_cast<std::size_t>(prog)];
  }
  bool nativeCall(int callee) const {
    return static_cast<std::size_t>(program(callee).numValues) *
               sizeof(parad_cg_val) <=
           kNativeFrameBytes;
  }

  /// The C expression of a slot in the range being emitted.
  std::string slot(std::int32_t s) const {
    if (local_[static_cast<std::size_t>(s)])
      return "v" + std::to_string(s);
    return "F[" + std::to_string(s) + "]";
  }
  static std::string f64bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return "pd_f64(0x" + hex64(b) + "ull)";
  }
  static std::string i64bits(i64 v) {
    std::uint64_t b;
    std::memcpy(&b, &v, 8);
    return "pd_i64(0x" + hex64(b) + "ull)";
  }

  void line(const std::string& s) { body_ += "  " + s + "\n"; }
  void av(int k, const char* indent = "") {
    used_[static_cast<std::size_t>(k)] = true;
    body_ += "  ";
    body_ += indent;
    body_ += "clk += kc_";
    body_ += kCostNames[k];
    body_ += ";\n";
  }
  /// A host callback (or nested range) that reads or moves the clock:
  /// spill before, reload after. It may also allocate, free, fork or roll
  /// memory back, so every resolved pointer is stale afterwards.
  void viaHost(const std::string& s) {
    std::string indent = s.substr(0, s.find_first_not_of(' '));
    line(indent + "W->clock = clk;");
    line(s);
    line(indent + "clk = W->clock;");
    unresolveAll();
  }
  /// Flushes the range's partial dispatch count and propagates Return —
  /// exactly `rr.insts += nd; return Flow::Return;` in the exec loop. The
  /// callee that returned 1 left the clock spilled. A range is straight-line,
  /// so its count at any point is known while it is emitted.
  std::string propagate() const {
    return "{ *c->insts += " + std::to_string(nd_) + "ull; return 1; }";
  }
  // A callback that never returns (it throws the engine's error).
  static std::string dies(const std::string& call) {
    return "{ W->clock = clk; " + call + "; }";
  }

  /// The resolved row of pointer slot `s`, resolving it first when no
  /// resolution since the last callback is current. (A slot is defined once
  /// per range execution, before its first access, so its definition never
  /// invalidates a resolution.)
  std::string resolved(std::int32_t s) {
    std::string rs = "rs" + std::to_string(s);
    if (!resolvedNow_[static_cast<std::size_t>(s)]) {
      line("pd_res(c, W, " + slot(s) + ".u.p.obj, &" + rs + ");");
      resolvedNow_[static_cast<std::size_t>(s)] = true;
      resolvedList_.push_back(s);
      if (!everResolved_[static_cast<std::size_t>(s)]) {
        everResolved_[static_cast<std::size_t>(s)] = true;
        rsDecls_.push_back(s);
      }
    }
    return rs;
  }
  void unresolveAll() {
    for (std::int32_t s : resolvedList_)
      resolvedNow_[static_cast<std::size_t>(s)] = false;
    resolvedList_.clear();
  }

  /// `k` = the accessed element's index in the object, as an unsigned
  /// compare-ready value (a negative index wraps past every count).
  std::string elemIndex(std::int32_t ptr, std::int32_t idx) const {
    return "(unsigned long long)" + slot(ptr) +
           ".u.p.off + (unsigned long long)" + slot(idx) + ".u.i";
  }
  void emitLoad(std::int32_t res, std::int32_t ptr, std::int32_t idx) {
    std::string rs = resolved(ptr);
    std::string R = slot(res);
    line("{ unsigned long long cg_k = " + elemIndex(ptr, idx) + ";");
    line("  if (__builtin_expect(cg_k < " + rs + ".n, 1)) { " + R +
         ".u.f = " + rs + ".b[cg_k]; clk += " + rs + ".k; }");
    line("  else { " + R + " = pd_lds(c, W, clk, " + slot(ptr) + ", " +
         slot(idx) + ".u.i, " + R + ", &" + rs + "); clk = W->clock; } }");
  }
  void emitStore(std::int32_t ptr, std::int32_t idx, std::int32_t val) {
    std::string rs = resolved(ptr);
    line("{ unsigned long long cg_k = " + elemIndex(ptr, idx) + ";");
    line("  if (__builtin_expect(cg_k < " + rs + ".n, 1)) { " + rs +
         ".b[cg_k] = " + slot(val) + ".u.f; clk += " + rs + ".k; }");
    line("  else clk = pd_sts(c, W, clk, " + slot(ptr) + ", " + slot(idx) +
         ".u.i, " + slot(val) + ", &" + rs + "); }");
  }

  /// A Call. Exec's callProgram order: the depth check (a failing one runs
  /// the host path, which raises exec's own error), the call charge, then
  /// the callee's frame (c<prog>) and its return-value save and restore.
  void emitCall(const ExecInst& in, const std::int32_t* args) {
    body_ += "  {\n";
    std::string argsExpr = "(const parad_cg_val*)0";
    if (in.nOps > 0) {
      std::string init;
      for (int i = 0; i < static_cast<int>(in.nOps); ++i) {
        if (!init.empty()) init += ", ";
        init += slot(args[i]);
      }
      line("  parad_cg_val cg_as[" + std::to_string(in.nOps) + "] = { " +
           init + " };");
      argsExpr = "cg_as";
    }
    line("  parad_cg_val cg_out;");
    std::string host = "c->api->call(c, &cg_out, " +
                       std::to_string(in.callee) + ", " + argsExpr + ", " +
                       std::to_string(in.nOps) + ");";
    if (nativeCall(in.callee)) {
      line("  if (__builtin_expect(*c->depth + 1 < c->max_depth, 1)) {");
      line("    ++*c->depth;");
      av(PARAD_CG_CT_CALL, "    ");
      line("    W->clock = clk;");
      line("    cg_out = c" + std::to_string(in.callee) + "(c, W, " +
           argsExpr + ");");
      line("    --*c->depth;");
      line("  } else {");
      line("    W->clock = clk;");
      line("    " + host);
      line("  }");
      line("  clk = W->clock;");
      unresolveAll();
    } else {
      viaHost("  " + host);
    }
    if (in.result >= 0) line("  " + slot(in.result) + " = cg_out;");
    body_ += "  }\n";
  }

  /// c<prog>: a direct call's callee frame on the native stack — zeroed,
  /// then the arguments, then the const inits — around the entry range,
  /// with the caller's return-value slot saved and restored.
  void emitCallee(int prog) {
    const ExecProgram& p = program(prog);
    std::string n = std::to_string(std::max(p.numValues, 1));
    out_ += "static parad_cg_val c" + std::to_string(prog) +
            "(parad_cg_ctx* c, parad_cg_worker* W, const parad_cg_val* A) {\n";
    out_ += "  (void)A;\n  parad_cg_val F[" + n + "];\n";
    out_ += "  __builtin_memset(F, 0, sizeof F);\n";
    for (std::size_t i = 0; i < p.numParams; ++i)
      out_ += "  F[" + std::to_string(p.paramSlots[i]) + "] = A[" +
              std::to_string(i) + "];\n";
    for (const ConstInit& ci : p.constInits)
      out_ += "  F[" + std::to_string(ci.slot) + "]" +
              (ci.isF ? ".u.f = " + f64bits(ci.f) : ".u.i = " + i64bits(ci.i)) +
              ";\n";
    out_ += "  parad_cg_val sv = *c->ret;\n";
    out_ += "  __builtin_memset(c->ret, 0, sizeof *c->ret);\n";
    out_ += "  r" + std::to_string(blockRangeId(prog, p.entryBlock)) +
            "(c, F, W);\n";
    out_ += "  parad_cg_val out = *c->ret;\n";
    out_ += "  *c->ret = sv;\n  return out;\n}\n\n";
  }

  /// Emits a pure frame-only op (the fusable-superinstruction set plus a few
  /// more). `res` is the result slot, `o` the resolved operand slots.
  /// Returns false when `op` is not in the pure set.
  bool emitPure(Op op, std::int32_t res, const std::int32_t* o) {
    const std::string R = slot(res);
    auto F = [&](int i) { return slot(o[i]) + ".u.f"; };
    auto I = [&](int i) { return slot(o[i]) + ".u.i"; };
    auto binF = [&](int cost, const char* sym) {
      av(cost);
      line(R + ".u.f = " + F(0) + " " + sym + " " + F(1) + ";");
    };
    auto callF1 = [&](int cost, const char* fn) {
      av(cost);
      line(R + ".u.f = " + fn + "(" + F(0) + ");");
    };
    auto binI = [&](const char* sym) {
      av(PARAD_CG_CT_INTOP);
      line(R + ".u.i = " + I(0) + " " + sym + " " + I(1) + ";");
    };
    auto cmp = [&](const std::string& a, const char* sym,
                   const std::string& b) {
      av(PARAD_CG_CT_INTOP);
      line(R + ".u.i = (" + a + " " + sym + " " + b + ") ? 1 : 0;");
    };
    auto divI = [&](const char* sym, const char* what) {
      av(PARAD_CG_CT_INTDIV);
      line("if (" + I(1) + " == 0) " +
           dies(std::string("c->api->die(c, \"integer ") + what +
                " by zero\")"));
      line(R + ".u.i = " + I(0) + " " + sym + " " + I(1) + ";");
    };
    switch (op) {
      case Op::FAdd: binF(PARAD_CG_CT_FLOP, "+"); break;
      case Op::FSub: binF(PARAD_CG_CT_FLOP, "-"); break;
      case Op::FMul: binF(PARAD_CG_CT_FLOP, "*"); break;
      case Op::FDiv: binF(PARAD_CG_CT_FDIV, "/"); break;
      case Op::FNeg:
        av(PARAD_CG_CT_FLOP);
        line(R + ".u.f = -" + F(0) + ";");
        break;
      case Op::Sqrt: callF1(PARAD_CG_CT_SPECIAL, "__builtin_sqrt"); break;
      case Op::Sin: callF1(PARAD_CG_CT_SPECIAL, "__builtin_sin"); break;
      case Op::Cos: callF1(PARAD_CG_CT_SPECIAL, "__builtin_cos"); break;
      case Op::Exp: callF1(PARAD_CG_CT_SPECIAL, "__builtin_exp"); break;
      case Op::Log: callF1(PARAD_CG_CT_SPECIAL, "__builtin_log"); break;
      case Op::Cbrt: callF1(PARAD_CG_CT_SPECIAL, "__builtin_cbrt"); break;
      case Op::Pow:
        av(PARAD_CG_CT_POW);
        line(R + ".u.f = __builtin_pow(" + F(0) + ", " + F(1) + ");");
        break;
      case Op::FAbs: callF1(PARAD_CG_CT_MINMAX, "__builtin_fabs"); break;
      // std::min(a,b) is (b<a)?b:a and std::max(a,b) is (a<b)?b:a — spelled
      // out so NaN propagation matches the exec engine bit for bit.
      case Op::FMin:
        av(PARAD_CG_CT_MINMAX);
        line(R + ".u.f = (" + F(1) + " < " + F(0) + ") ? " + F(1) + " : " +
             F(0) + ";");
        break;
      case Op::FMax:
        av(PARAD_CG_CT_MINMAX);
        line(R + ".u.f = (" + F(0) + " < " + F(1) + ") ? " + F(1) + " : " +
             F(0) + ";");
        break;
      case Op::IAdd: binI("+"); break;
      case Op::ISub: binI("-"); break;
      case Op::IMul: binI("*"); break;
      case Op::IDiv: divI("/", "division"); break;
      case Op::IRem: divI("%", "remainder"); break;
      case Op::IMinOp:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (" + I(1) + " < " + I(0) + ") ? " + I(1) + " : " +
             I(0) + ";");
        break;
      case Op::IMaxOp:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (" + I(0) + " < " + I(1) + ") ? " + I(1) + " : " +
             I(0) + ";");
        break;
      case Op::ICmpEq: cmp(I(0), "==", I(1)); break;
      case Op::ICmpNe: cmp(I(0), "!=", I(1)); break;
      case Op::ICmpLt: cmp(I(0), "<", I(1)); break;
      case Op::ICmpLe: cmp(I(0), "<=", I(1)); break;
      case Op::ICmpGt: cmp(I(0), ">", I(1)); break;
      case Op::ICmpGe: cmp(I(0), ">=", I(1)); break;
      case Op::FCmpLt: cmp(F(0), "<", F(1)); break;
      case Op::FCmpLe: cmp(F(0), "<=", F(1)); break;
      case Op::FCmpGt: cmp(F(0), ">", F(1)); break;
      case Op::FCmpGe: cmp(F(0), ">=", F(1)); break;
      case Op::FCmpEq: cmp(F(0), "==", F(1)); break;
      case Op::BAnd:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (" + I(0) + " && " + I(1) + ") ? 1 : 0;");
        break;
      case Op::BOr:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (" + I(0) + " || " + I(1) + ") ? 1 : 0;");
        break;
      case Op::BNot:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (!" + I(0) + ") ? 1 : 0;");
        break;
      case Op::Select:
        av(PARAD_CG_CT_INTOP);
        line(R + " = " + I(0) + " ? " + slot(o[1]) + " : " + slot(o[2]) + ";");
        break;
      case Op::IToF:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.f = (double)" + I(0) + ";");
        break;
      case Op::FToI:
        av(PARAD_CG_CT_INTOP);
        line(R + ".u.i = (long long)" + F(0) + ";");
        break;
      case Op::PtrOffset:
        av(PARAD_CG_CT_INTOP);
        line("{ parad_cg_ptr cg_t = " + slot(o[0]) + ".u.p; cg_t.off += " +
             I(1) + "; " + R + ".u.p = cg_t; }");
        break;
      default:
        return false;
    }
    return true;
  }

  void emitInst(const ExecProgram& p, int prog, std::int32_t pc) {
    const ExecInst& in = p.code[static_cast<std::size_t>(pc)];
    nd_ += 1 + static_cast<std::uint64_t>(in.constsBefore);
    std::int32_t opsBuf[16];
    const std::int32_t* src = in.poolBase >= 0
                                  ? p.pool.data() + in.poolBase
                                  : in.a.data();
    int nInline = std::min<int>(in.nOps, 16);
    for (int i = 0; i < nInline; ++i) opsBuf[i] = src[i];
    const std::int32_t* o = in.poolBase >= 0 ? src : opsBuf;
    // A nested range call, always emitted through viaHost: the callee starts
    // from the clock in the worker and leaves its own there.
    auto body = [&](std::int32_t blockId) {
      // Appended, not `"r" + ...`: GCC 12 at -O3 reports a false
      // -Wrestrict on that form, which -Werror turns into a build failure.
      std::string r = "r";
      r += std::to_string(blockRangeId(prog, blockId));
      r += "(c, F, W)";
      return r;
    };
    auto argSlot = [&](std::int32_t blockId) {
      return p.blocks[static_cast<std::size_t>(blockId)].arg;
    };

    if (isComplexOp(in.op)) {
      viaHost("if (c->api->complex_op(c, F, " + std::to_string(prog) + ", " +
              std::to_string(pc) + ")) " + propagate());
      return;  // never fused: only pure ops pair up
    }
    switch (in.op) {
      case Op::ConstF:
        line(slot(in.result) + ".u.f = " + f64bits(in.fconst) + ";");
        break;
      case Op::ConstI:
      case Op::ConstB:
        line(slot(in.result) + ".u.i = " + i64bits(in.iconst) + ";");
        break;

      case Op::Load: emitLoad(in.result, o[0], o[1]); break;
      case Op::Store: emitStore(o[0], o[1], o[2]); break;

      case Op::Call:
        if (in.trap >= 0)
          line(dies("c->api->trap(c, " + std::to_string(in.trap) + ")"));
        else
          emitCall(in, src);
        break;
      case Op::CallIndirect:
      case Op::OmpParallelFor:
        line(dies("c->api->trap(c, " + std::to_string(in.trap) + ")"));
        break;

      case Op::Return:
        if (in.nOps > 0) line("*c->ret = " + slot(o[0]) + ";");
        line("W->clock = clk;");
        line("*c->insts += " + std::to_string(nd_) + "ull;");
        line("return 1;");
        break;

      case Op::For:
        body_ += "  { long long cg_lo = " + slot(o[0]) +
                 ".u.i, cg_hi = " + slot(o[1]) + ".u.i;\n";
        body_ += "  for (long long cg_i = cg_lo; cg_i < cg_hi; ++cg_i) {\n";
        line("  " + slot(argSlot(in.blockA)) + ".u.i = cg_i;");
        av(PARAD_CG_CT_LOOPITER, "  ");
        viaHost("  if (" + body(in.blockA) + ") " + propagate());
        body_ += "  } }\n";
        break;
      case Op::While:
        body_ += "  { for (long long cg_it = 0;; ++cg_it) {\n";
        line("  if (cg_it >= (1ll << 32)) " +
             dies("c->api->die(c, \"runaway while loop\")"));
        line("  " + slot(argSlot(in.blockA)) + ".u.i = cg_it;");
        av(PARAD_CG_CT_LOOPITER, "  ");
        line("  *c->yield = 0;");
        viaHost("  if (" + body(in.blockA) + ") " + propagate());
        line("  if (!*c->yield) break;");
        body_ += "  } }\n";
        break;
      case Op::Yield:
        line("*c->yield = (" + slot(o[0]) + ".u.i != 0) ? 1 : 0;");
        break;
      case Op::If:
        av(PARAD_CG_CT_INTOP);
        line("if (" + slot(o[0]) + ".u.i) {");
        viaHost("  if (" + body(in.blockA) + ") " + propagate());
        if (in.blockB >= 0) {
          line("} else {");
          viaHost("  if (" + body(in.blockB) + ") " + propagate());
        }
        line("}");
        break;

      case Op::Workshare: {
        body_ += "  { long long cg_lo = " + slot(o[0]) +
                 ".u.i, cg_hi = " + slot(o[1]) + ".u.i;\n";
        line("int cg_tid = c->api->tid(c), cg_n = c->api->nthreads(c);");
        av(PARAD_CG_CT_WORKSHARE);
        line("long long cg_len = cg_hi - cg_lo;");
        line("if (cg_len > 0) {");
        line("  long long cg_chunk = (cg_len + cg_n - 1) / cg_n;");
        line("  long long cg_b = cg_lo + (long long)cg_tid * cg_chunk;");
        line("  long long cg_e = (cg_b + cg_chunk < cg_hi) ? cg_b + cg_chunk "
             ": cg_hi;");
        line("  for (long long cg_k = cg_b; cg_k < cg_e; ++cg_k) {");
        line(std::string("    ") + slot(argSlot(in.blockA)) + ".u.i = " +
             (in.iconst != 0 ? "cg_e - 1 - (cg_k - cg_b)" : "cg_k") + ";");
        av(PARAD_CG_CT_LOOPITER, "    ");
        viaHost("    if (" + body(in.blockA) +
                ") c->api->die(c, \"return out of a workshare body\");");
        line("  }");
        line("} }");
        break;
      }
      case Op::BarrierOp:
        line(dies("c->api->die(c, \"barrier outside fork segmentation\")"));
        break;
      case Op::ThreadIdOp:
        line(slot(in.result) + ".u.i = c->api->tid(c);");
        break;
      case Op::NumThreadsOp:
        line(slot(in.result) + ".u.i = c->api->nthreads_default(c);");
        break;
      case Op::MpRank:
        line(slot(in.result) + ".u.i = c->rank;");
        break;
      case Op::MpSize:
        line(slot(in.result) + ".u.i = c->ranks;");
        break;
      case Op::GcPreserveBegin:
        av(PARAD_CG_CT_GC);
        line(slot(in.result) + ".u.i = 0;");
        break;
      case Op::GcPreserveEnd:
        av(PARAD_CG_CT_GC);
        break;

      default: {
        bool ok = emitPure(in.op, in.result, o);
        PARAD_CHECK(ok, "codegen: unhandled op in emitter");
        break;
      }
    }

    if (in.op2 >= 0) {
      nd_ += 1 + static_cast<std::uint64_t>(in.consts2);
      bool ok = emitPure(static_cast<Op>(in.op2), in.result2, in.a2.data());
      PARAD_CHECK(ok, "codegen: non-arithmetic op in fused slot");
    }
  }

  /// Makes local_ the C-local set of the range [begin, end) of `prog`;
  /// returns its slots in definition order.
  std::vector<std::int32_t> setLocals(int prog, std::int32_t begin,
                                      std::int32_t end) {
    const ExecProgram& p = program(prog);
    const SlotUses& uses = uses_[static_cast<std::size_t>(prog)];
    local_.assign(static_cast<std::size_t>(p.numValues), false);
    std::vector<std::int32_t> locals;
    auto maybeLocal = [&](std::int32_t s) {
      if (s >= 0 && !local_[static_cast<std::size_t>(s)] &&
          uses.local(s, begin, end)) {
        local_[static_cast<std::size_t>(s)] = true;
        locals.push_back(s);
      }
    };
    for (std::int32_t pc = begin; pc < end; ++pc) {
      const ExecInst& in = p.code[static_cast<std::size_t>(pc)];
      maybeLocal(in.result);
      if (in.op2 >= 0) maybeLocal(in.result2);
    }
    return locals;
  }

  void emitRange(int id, const CgRange& r) {
    const ExecProgram& p = program(r.prog);
    std::size_t nv = static_cast<std::size_t>(p.numValues);
    body_.clear();
    used_.fill(false);
    resolvedNow_.assign(nv, false);
    everResolved_.assign(nv, false);
    resolvedList_.clear();
    rsDecls_.clear();
    nd_ = 0;
    std::vector<std::int32_t> locals = setLocals(r.prog, r.begin, r.end);
    for (std::int32_t pc = r.begin; pc < r.end; ++pc)
      emitInst(p, r.prog, pc);
    out_ += "// prog " + std::to_string(r.prog) + " (@" + p.name +
            ") range [" + std::to_string(r.begin) + ", " +
            std::to_string(r.end) + ")\n";
    out_ += "static int r" + std::to_string(id) +
            "(parad_cg_ctx* c, parad_cg_val* F, parad_cg_worker* W) {\n";
    out_ += "  (void)c; (void)F;\n";
    out_ += "  double clk = W->clock;\n";
    for (int k = 0; k < PARAD_CG_CT_COUNT; ++k)
      if (used_[static_cast<std::size_t>(k)])
        out_ += std::string("  const double kc_") + kCostNames[k] +
                " = c->ct[PARAD_CG_CT_" + kCostNames[k] +
                "] * W->dilation;\n";
    for (std::int32_t s : locals)
      out_ += "  parad_cg_val v" + std::to_string(s) + " = {};\n";
    for (std::int32_t s : rsDecls_)
      out_ += "  pd_rs rs" + std::to_string(s) + ";\n";
    out_ += body_;
    out_ += "  W->clock = clk;\n";
    out_ += "  *c->insts += " +
            std::to_string(nd_ + static_cast<std::uint64_t>(r.trailing)) +
            "ull;\n";
    out_ += "  if (c->probe_flags) c->api->probe(c);\n";
    out_ += "  return 0;\n}\n\n";
  }

  const ExecModule& xm_;
  std::vector<std::vector<int>> blockRange_;  // [prog][block] -> range id
  std::vector<SlotUses> uses_;  // per program
  std::vector<CgRange> table_;
  std::string out_;
  // The range being emitted.
  std::string body_;
  std::array<bool, PARAD_CG_CT_COUNT> used_{};  // kc_* locals it needs
  std::uint64_t nd_ = 0;  // instructions dispatched so far (exec's `nd`)
  std::vector<bool> local_;         // slot -> C local of this range
  std::vector<bool> resolvedNow_;   // slot -> rs<slot> is current here
  std::vector<bool> everResolved_;  // slot -> rs<slot> is declared
  std::vector<std::int32_t> resolvedList_;  // slots with resolvedNow_ set
  std::vector<std::int32_t> rsDecls_;
};

}  // namespace

std::uint64_t closureFingerprint(const ExecModule& xm) {
  hash::Fnv f;
  f.mix(static_cast<std::uint64_t>(PARAD_CG_ABI_VERSION));
  f.mix(kGeneratorVersion);
  f.mix(static_cast<std::uint64_t>(xm.programs.size()));
  for (const ExecProgram& p : xm.programs) {
    f.mix(p.fingerprint);
    f.mix(p.name);
    f.mix(static_cast<std::uint64_t>(p.code.size()));
    f.mix(static_cast<std::uint64_t>(p.blocks.size()));
    f.mix(static_cast<std::uint64_t>(p.segments.size()));
  }
  return f.h;
}

std::string emitClosureSource(const ExecModule& xm) {
  PARAD_CHECK(!xm.programs.empty(), "codegen: empty closure");
  return SourceEmitter(xm).emit(closureFingerprint(xm));
}

// ---------------------------------------------------------------------------
// Artifact: a dlopen'd generated library plus the (prog, begin, end,
// trailing) -> range-id table that execRange interception resolves through.

class CodegenArtifact {
 public:
  using RangeFn = int (*)(parad_cg_ctx*, int, parad_cg_val*);

  CodegenArtifact(void* handle, RangeFn fn, const ExecModule& xm)
      : handle_(handle), fn_(fn) {
    std::vector<CgRange> t = buildRangeTable(xm);
    ids_.reserve(t.size());
    for (std::size_t id = 0; id < t.size(); ++id)
      ids_.emplace(Key{t[id].prog, t[id].begin, t[id].end, t[id].trailing},
                   static_cast<int>(id));
  }
  ~CodegenArtifact() {
    if (handle_ != nullptr) dlclose(handle_);
  }
  CodegenArtifact(const CodegenArtifact&) = delete;
  CodegenArtifact& operator=(const CodegenArtifact&) = delete;

  RangeFn range() const { return fn_; }
  int rangeId(int prog, std::int32_t begin, std::int32_t end,
              std::int32_t trailing) const {
    auto it = ids_.find(Key{prog, begin, end, trailing});
    return it == ids_.end() ? -1 : it->second;
  }

 private:
  struct Key {
    int prog;
    std::int32_t begin, end, trailing;
    bool operator==(const Key& o) const {
      return prog == o.prog && begin == o.begin && end == o.end &&
             trailing == o.trailing;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      auto pack = [](std::int32_t hi, std::int32_t lo) {
        return std::uint64_t(std::uint32_t(hi)) << 32 | std::uint32_t(lo);
      };
      return static_cast<std::size_t>(hash::mix64(
          pack(k.prog, k.begin) ^ hash::mix64(pack(k.end, k.trailing))));
    }
  };
  void* handle_;
  RangeFn fn_;
  std::unordered_map<Key, int, KeyHash> ids_;
};

// ---------------------------------------------------------------------------
// CodegenExecutor: the exec engine with compiled ranges swapped in. Derives
// from Executor so run setup, host-path calls, fork/parallel-for
// orchestration and every machine-state instruction are literally the same
// code as the exec backend; only frame-local dispatch and direct calls are
// replaced.

class CodegenExecutor final : public Executor {
 public:
  CodegenExecutor(const ExecModule& xm, psim::Machine& machine,
                  std::shared_ptr<const CodegenArtifact> art)
      : Executor(xm, machine), art_(std::move(art)) {}

 protected:
  void beginRun(RankRun& rr) override {
    costs_[PARAD_CG_CT_FLOP] = ct_.flop;
    costs_[PARAD_CG_CT_FDIV] = ct_.fdiv;
    costs_[PARAD_CG_CT_INTOP] = ct_.intOp;
    costs_[PARAD_CG_CT_INTDIV] = ct_.intDiv;
    costs_[PARAD_CG_CT_SPECIAL] = ct_.special;
    costs_[PARAD_CG_CT_POW] = ct_.powCost;
    costs_[PARAD_CG_CT_MINMAX] = ct_.minmax;
    costs_[PARAD_CG_CT_LOOPITER] = ct_.loopIter;
    costs_[PARAD_CG_CT_WORKSHARE] = ct_.workshareInit;
    costs_[PARAD_CG_CT_GC] = ct_.gcCost;
    costs_[PARAD_CG_CT_CALL] = ct_.callCost;
    rr_ = &rr;
    ctx_.api = &kApi;
    ctx_.ct = costs_;
    static_assert(sizeof(rr.insts) == sizeof(unsigned long long),
                  "dispatch counter crosses the ABI as unsigned long long");
    ctx_.insts = reinterpret_cast<unsigned long long*>(&rr.insts);
    ctx_.ret = reinterpret_cast<parad_cg_val*>(&rr.retVal);
    // The yield flag is one per-run bool threaded through every nested call
    // (exec semantics); generated code reads and writes it in place so host
    // and native ranges always observe the same value.
    static_assert(sizeof(bool) == 1, "yield flag crosses the ABI as a byte");
    ctx_.yield = reinterpret_cast<unsigned char*>(&rr.yield);
    ctx_.rank = rr.env->rank;
    ctx_.ranks = rr.env->ranks;
    // Fixed for the whole run: kill schedules are armed before rank programs
    // start, and the watchdog config never changes mid-attempt (recovery
    // slack is applied between attempts, each with a fresh executor).
    ctx_.probe_flags = (machine_.killArmed() ? 1 : 0) |
                       (machine_.config().watchdogInsts != 0 ? 2 : 0) |
                       (machine_.watchdogTimeBound() > 0 ? 4 : 0) |
                       (machine_.cancelArmed() ? 8 : 0);
    ctx_.host = this;
    ctx_.objs =
        reinterpret_cast<const parad_cg_objs*>(&machine_.mem().views());
    ctx_.memo =
        reinterpret_cast<const parad_cg_memcharge*>(machine_.memCharges());
    ctx_.workers = machine_.workerCounts();
    ctx_.depth = &rr.callDepth;
    ctx_.max_depth = machine_.config().maxCallDepth;
  }

  Flow execRange(const ExecProgram& p, std::int32_t pc, std::int32_t end,
                 std::int32_t trailingConsts, RtVal* F, RankRun& rr) override {
    int prog = static_cast<int>(&p - xm_.programs.data());
    int id = art_->rangeId(prog, pc, end, trailingConsts);
    if (id < 0)  // defensive: every lowered range is in the table
      return Executor::execRange(p, pc, end, trailingConsts, F, rr);
    ctx_.w = reinterpret_cast<parad_cg_worker*>(&rr.ts->w);
    int fl = art_->range()(&ctx_, id, reinterpret_cast<parad_cg_val*>(F));
    return fl != 0 ? Flow::Return : Flow::Normal;
  }

 private:
  static CodegenExecutor& self(parad_cg_ctx* c) {
    return *static_cast<CodegenExecutor*>(c->host);
  }
  static psim::RtPtr toPtr(parad_cg_val v) {
    psim::RtPtr p;
    p.obj = v.u.p.obj;
    p.off = v.u.p.off;
    return p;
  }

  // The generated fast path's fallback: exec's own Load/Store, charged to
  // the current worker (the clock was spilled before the call).
  static void cgLoad(parad_cg_ctx* c, parad_cg_val* dst, parad_cg_val ptr,
                     long long idx) {
    CodegenExecutor& e = self(c);
    e.loadElem(e.rr_->ts->w, toPtr(ptr), idx,
               *reinterpret_cast<RtVal*>(dst));
  }
  static void cgStore(parad_cg_ctx* c, parad_cg_val ptr, long long idx,
                      parad_cg_val v) {
    CodegenExecutor& e = self(c);
    RtVal rv;
    std::memcpy(static_cast<void*>(&rv), &v, sizeof rv);
    e.storeElem(e.rr_->ts->w, toPtr(ptr), idx, rv);
  }
  static void cgCall(parad_cg_ctx* c, parad_cg_val* out, int callee,
                     const parad_cg_val* args, int nargs) {
    CodegenExecutor& e = self(c);
    const ExecProgram& cp = e.xm_.programs[static_cast<std::size_t>(callee)];
    RtVal r = e.callProgram(cp, reinterpret_cast<const RtVal*>(args),
                            static_cast<std::size_t>(nargs), *e.rr_);
    std::memcpy(out, &r, sizeof r);
  }
  // `frame` is the executing function's frame: a heap frame, or the
  // native-stack frame of a direct call.
  static int cgComplex(parad_cg_ctx* c, parad_cg_val* frame, int prog,
                       int inst) {
    CodegenExecutor& e = self(c);
    const ExecProgram& p = e.xm_.programs[static_cast<std::size_t>(prog)];
    const ExecInst& in = p.code[static_cast<std::size_t>(inst)];
    Flow fl = e.execComplexInst(p, in, reinterpret_cast<RtVal*>(frame),
                                *e.rr_);
    return fl == Flow::Return ? 1 : 0;
  }
  static int cgTid(parad_cg_ctx* c) { return self(c).rr_->ts->tid; }
  static int cgNthreads(parad_cg_ctx* c) { return self(c).rr_->ts->nthreads; }
  static int cgNthreadsDefault(parad_cg_ctx* c) {
    CodegenExecutor& e = self(c);
    int n = e.rr_->ts->nthreads;
    return n > 1 ? n : e.rr_->env->threadsPerRank;
  }
  static void cgTrap(parad_cg_ctx* c, int trapIndex) {
    CodegenExecutor& e = self(c);
    fail(e.xm_.trapMsgs[static_cast<std::size_t>(trapIndex)]);
  }
  static void cgDie(parad_cg_ctx* c, const char* msg) {
    (void)c;
    fail(msg);
  }
  static void cgProbe(parad_cg_ctx* c) {
    CodegenExecutor& e = self(c);
    RankRun& rr = *e.rr_;
    // Same order as the exec engine's range exit: kill probe (root thread
    // only), then the dispatch watchdog, then the virtual-time watchdog.
    if (rr.ts == rr.root) e.machine_.checkKill(rr.env->rank, rr.ts->w.clock);
    std::uint64_t wd = e.machine_.config().watchdogInsts;
    if (wd != 0 && rr.insts > wd)
      e.machine_.failWatchdog(rr.env->rank, rr.insts);
    double tb = e.machine_.watchdogTimeBound();
    if (tb > 0 && rr.ts->w.clock > tb)
      e.machine_.failWatchdogTime(rr.env->rank, rr.ts->w.clock);
  }

  static const parad_cg_api kApi;

  std::shared_ptr<const CodegenArtifact> art_;
  parad_cg_ctx ctx_{};
  double costs_[PARAD_CG_CT_COUNT] = {};
  RankRun* rr_ = nullptr;
};

const parad_cg_api CodegenExecutor::kApi = {
    &CodegenExecutor::cgLoad,    &CodegenExecutor::cgStore,
    &CodegenExecutor::cgCall,    &CodegenExecutor::cgComplex,
    &CodegenExecutor::cgTid,     &CodegenExecutor::cgNthreads,
    &CodegenExecutor::cgNthreadsDefault, &CodegenExecutor::cgTrap,
    &CodegenExecutor::cgDie,     &CodegenExecutor::cgProbe,
};

// ---------------------------------------------------------------------------
// Cache: memory -> disk -> compile, with graceful fallback.

namespace {

/// Whether a host compiler runs at all, and the optimization flags to build
/// generated code with (see probeCompiler).
struct CompilerProbe {
  bool ok = false;
  std::string optFlags;
};

}  // namespace

struct CodegenCache::Impl {
  mutable std::mutex mu;
  CodegenConfig cfg;
  // Atomic so counters() never blocks behind a host-compiler invocation that
  // another thread is running under `mu`, and so concurrent serving workers
  // report coherent numbers (src/serve surfaces these in its bench JSON).
  struct {
    std::atomic<std::uint64_t> compiles{0}, diskHits{0}, memHits{0},
        fallbacks{0}, memEvictions{0}, diskEvictions{0};
  } counters;
  core::RemarkStream remarks;
  // In-process artifacts, LRU-ordered for the memory byte cap. `bytes` is
  // the .so file size — a deterministic, cheap proxy for the mapped object.
  struct MemEntry {
    std::shared_ptr<const CodegenArtifact> art;
    std::size_t bytes = 0;
    std::list<std::uint64_t>::iterator lruIt;
  };
  std::unordered_map<std::uint64_t, MemEntry> mem;
  std::list<std::uint64_t> lru;  // most-recently-used first
  std::size_t memBytes = 0;
  std::unordered_set<std::uint64_t> failed;  // fingerprints that won't compile
  std::unordered_map<std::string, CompilerProbe> compilers;  // probe memo
  bool warnedNoCompiler = false;

  std::size_t memCap() const {
    if (cfg.memCapacityBytes != 0) return cfg.memCapacityBytes;
    return env::count("codegen", "PARAD_CODEGEN_MEM_BYTES").value_or(0);
  }
  std::size_t diskCap() const {
    if (cfg.diskCapacityBytes != 0) return cfg.diskCapacityBytes;
    return env::count("codegen", "PARAD_CODEGEN_DISK_BYTES").value_or(0);
  }
  // Inserts (or refreshes) an artifact and applies the memory byte cap; the
  // fresh entry always survives. Caller holds `mu`. Dropped artifacts keep
  // executing in runs that already hold a shared_ptr — the dlclose happens
  // when the last reference drops.
  void insertMem(std::uint64_t fp, std::shared_ptr<const CodegenArtifact> art,
                 std::size_t bytes) {
    if (auto it = mem.find(fp); it != mem.end()) {
      memBytes -= it->second.bytes;
      lru.erase(it->second.lruIt);
      mem.erase(it);
    }
    lru.push_front(fp);
    mem.emplace(fp, MemEntry{std::move(art), bytes, lru.begin()});
    memBytes += bytes;
    std::size_t cap = memCap();
    if (cap == 0) return;
    while (memBytes > cap && mem.size() > 1) {
      auto victim = mem.find(lru.back());
      memBytes -= victim->second.bytes;
      lru.pop_back();
      mem.erase(victim);
      ++counters.memEvictions;
    }
  }

  // Applies the disk byte cap after an install via the shared hardened
  // sweep (io::sweepDirectory, the same oldest-first byte-capped retention
  // the durable checkpoint store uses): removes oldest-modified artifacts
  // (and their source/log siblings) until the directory's .so payload fits.
  // `keep` is the just-installed artifact, never swept. Caller holds `mu`.
  void sweepDisk(const std::string& dir, const std::string& keep) {
    io::SweepSpec spec;
    spec.prefix = "parad_cg_";
    spec.suffix = ".so";
    spec.capacityBytes = diskCap();
    spec.siblingExts = {".cpp", ".log"};
    counters.diskEvictions += static_cast<std::uint64_t>(
        io::sweepDirectory(dir, spec, keep));
  }
};

CodegenCache::Impl& CodegenCache::impl() const {
  static Impl* instance = new Impl;
  return *instance;
}

CodegenCache& CodegenCache::global() {
  static CodegenCache cache;
  return cache;
}

namespace {

std::string shellQuote(const std::string& s) { return "'" + s + "'"; }

bool makeDirs(const std::string& path) { return io::makeDirs(path); }

std::string resolveCacheDir(const CodegenConfig& cfg) {
  if (!cfg.cacheDir.empty()) return cfg.cacheDir;
  if (std::string d = env::text("PARAD_CODEGEN_DIR"); !d.empty()) return d;
  std::string base = env::text("TMPDIR");
  if (base.empty()) base = "/tmp";
  return base + "/parad-codegen-v" + std::to_string(PARAD_CG_ABI_VERSION) +
         "-u" + std::to_string(static_cast<unsigned long>(::getuid()));
}

std::string resolveCompiler(const CodegenConfig& cfg) {
  if (!cfg.compiler.empty()) return cfg.compiler;
  if (std::string s = env::text("PARAD_CXX"); !s.empty()) return s;
#ifdef PARAD_HOST_CXX
  return PARAD_HOST_CXX;
#else
  return "c++";
#endif
}

/// The compile line's extra flags (config, then $PARAD_CODEGEN_FLAGS), each
/// with a leading space.
std::string extraFlagsOf(const CodegenConfig& cfg) {
  std::string flags;
  if (!cfg.extraFlags.empty()) flags += " " + cfg.extraFlags;
  if (std::string ef = env::text("PARAD_CODEGEN_FLAGS"); !ef.empty())
    flags += " " + ef;
  return flags;
}

/// Extra compile flags change the object, not the closure, so they are part
/// of the artifact's identity: a sanitizer build never loads an
/// uninstrumented object from a shared cache directory, nor the reverse.
/// Without extra flags the key is the closure fingerprint itself. This is
/// the in-memory key, and the fingerprint a loaded object must export.
std::uint64_t artifactKeyOf(const ExecModule& xm,
                            const std::string& extraFlags) {
  std::uint64_t fp = closureFingerprint(xm);
  if (extraFlags.empty()) return fp;
  hash::Fnv f;
  f.mix(fp);
  f.mix(extraFlags);
  return f.h;
}

/// The on-disk name of an artifact: its in-memory key mixed with a hash of
/// the emitted source. The closure fingerprint covers the IR, not the
/// emitter, so without the source a changed emitter (or a lowering detail
/// the fingerprint does not hash) would be served an object built from
/// different code, whose range table need not even line up.
std::uint64_t diskKeyOf(std::uint64_t key, const std::string& source) {
  hash::Fnv f;
  f.mix(key);
  f.mix(source);
  return f.h;
}

/// Whether `cxx` runs at all, and the optimization flags to build generated
/// code with. -O1 plus interprocedural register allocation and caller-saved
/// registers across calls keeps a range's locals in registers around its
/// (cold) host callbacks at about -O1's compile time; -O2 runs no faster on
/// generated code and takes twice as long to compile it. One compiler run:
/// a compiler that rejects the two extra flags is probed again with
/// --version and gets plain -O1.
CompilerProbe probeCompiler(const std::string& cxx) {
  constexpr const char* kTuned = "-O1 -fipa-ra -fcaller-saves";
  std::string q = shellQuote(cxx);
  if (std::system((q + " " + kTuned +
                   " -fsyntax-only -x c++ /dev/null > /dev/null 2>&1")
                      .c_str()) == 0)
    return {true, kTuned};
  int rc = std::system((q + " --version > /dev/null 2>&1").c_str());
  return {rc == 0, "-O1"};
}

std::string firstLineOf(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line;
  return "";
}

std::size_t fileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size)
                                        : 0;
}

/// dlopens a generated object and validates its ABI version and fingerprint.
/// Returns nullptr (with a reason) on any mismatch — the caller recompiles.
std::shared_ptr<const CodegenArtifact> tryOpen(const std::string& path,
                                               std::uint64_t fp,
                                               const ExecModule& xm,
                                               std::string* reason) {
  void* h = dlopen(path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* err = dlerror();
    *reason = err != nullptr ? err : "dlopen failed";
    return nullptr;
  }
  auto abiFn =
      reinterpret_cast<unsigned long long (*)()>(dlsym(h, "parad_cg_abi"));
  auto fpFn =
      reinterpret_cast<unsigned long long (*)()>(dlsym(h, "parad_cg_fp"));
  auto rangeFn =
      reinterpret_cast<CodegenArtifact::RangeFn>(dlsym(h, "parad_cg_range"));
  if (abiFn == nullptr || fpFn == nullptr || rangeFn == nullptr) {
    *reason = "missing export";
    dlclose(h);
    return nullptr;
  }
  if (abiFn() != PARAD_CG_ABI_VERSION) {
    *reason = "ABI version mismatch";
    dlclose(h);
    return nullptr;
  }
  if (fpFn() != fp) {
    *reason = "fingerprint mismatch (stale artifact)";
    dlclose(h);
    return nullptr;
  }
  return std::make_shared<CodegenArtifact>(h, rangeFn, xm);
}

}  // namespace

std::shared_ptr<const CodegenArtifact> CodegenCache::lookup(
    const ExecModule& xm) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string extraFlags = extraFlagsOf(im.cfg);
  std::uint64_t fp = artifactKeyOf(xm, extraFlags);
  if (auto it = im.mem.find(fp); it != im.mem.end()) {
    ++im.counters.memHits;
    im.lru.splice(im.lru.begin(), im.lru, it->second.lruIt);  // touch
    return it->second.art;
  }
  if (im.failed.count(fp) != 0) {
    ++im.counters.fallbacks;
    return nullptr;
  }
  const std::string entry = "@" + xm.programs[0].name;
  // Emitted on an in-memory miss only: memory hits pay nothing for it.
  std::string source = SourceEmitter(xm).emit(fp);
  const std::string hex = hex64(diskKeyOf(fp, source));

  std::string dir = resolveCacheDir(im.cfg);
  if (!makeDirs(dir)) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: cannot create cache dir " + dir +
                        ": falling back to exec engine for " + entry);
    return nullptr;
  }
  std::string base = dir + "/parad_cg_" + hex;
  std::string soPath = base + ".so";

  // Disk reuse: an artifact with this fingerprint compiled by any process.
  std::string reason;
  if (::access(soPath.c_str(), F_OK) == 0) {
    if (auto art = tryOpen(soPath, fp, xm, &reason)) {
      ++im.counters.diskHits;
      im.insertMem(fp, art, fileSize(soPath));
      im.remarks.emit(core::RemarkKind::Backend,
                      "codegen: reused on-disk artifact for " + entry +
                          " (key " + hex + ")");
      return art;
    }
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: discarding stale artifact for " + entry + ": " +
                        reason);
  }

  // Compile.
  std::string cxx = resolveCompiler(im.cfg);
  auto probeIt = im.compilers.find(cxx);
  if (probeIt == im.compilers.end())
    probeIt = im.compilers.emplace(cxx, probeCompiler(cxx)).first;
  if (!probeIt->second.ok) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    std::string msg = "codegen: no usable host compiler ('" + cxx +
                      "'): falling back to exec engine";
    im.remarks.emit(core::RemarkKind::Backend, msg);
    if (!im.warnedNoCompiler) {
      im.warnedNoCompiler = true;
      std::fprintf(stderr, "parad: %s\n", msg.c_str());
    }
    return nullptr;
  }

  // All disk writes below go through the shared hardened primitives
  // (src/io/store.h): unique temp + flush + fsync + rename, with the
  // config's seeded IO-fault plan armed — an injected (or real) failure or
  // torn install degrades to the exec engine exactly like a missing
  // compiler, and a torn artifact is discarded by tryOpen's validation on
  // the next lookup.
  io::IoFaultPlan ioFaults(im.cfg.ioFaults);
  std::string srcPath = base + ".cpp";
  {
    const std::string src = std::move(source);  // freed before the compile
    std::string werr;
    if (!io::atomicWriteFile(srcPath, src.data(), src.size(),
                             &ioFaults, fp ^ 0x737263ull /*"src"*/, &werr)) {
      ++im.counters.fallbacks;
      im.failed.insert(fp);
      im.remarks.emit(core::RemarkKind::Backend,
                      "codegen: cannot write " + srcPath + " (" + werr +
                          "): falling back to exec engine for " + entry);
      return nullptr;
    }
  }
  // Unique temp output + atomic rename: concurrent processes compiling the
  // same fingerprint race benignly (last rename wins, both objects
  // identical). -ffp-contract=off and no -march keep the generated FP
  // arithmetic rounding exactly like the host-compiled engines.
  std::string tmpPath = base + ".tmp" +
                        std::to_string(static_cast<long>(::getpid())) + ".so";
  std::string logPath = base + ".log";
  std::string flags = " -std=c++17 " + probeIt->second.optFlags +
                      " -fPIC -shared -ffp-contract=off" + extraFlags;
  std::string cmd = shellQuote(cxx) + flags + " -o " + shellQuote(tmpPath) +
                    " " + shellQuote(srcPath) + " -lm 2> " +
                    shellQuote(logPath);
  int rc = std::system(cmd.c_str());
  if (rc != 0) {
    ::remove(tmpPath.c_str());
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    std::string err = firstLineOf(logPath);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: compile failed for " + entry +
                        (err.empty() ? "" : " (" + err + ")") +
                        ": falling back to exec engine");
    return nullptr;
  }
  std::string ierr;
  if (!io::installFile(tmpPath, soPath, &ioFaults, fp, &ierr)) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: cannot install artifact for " + entry + " (" +
                        ierr + "): falling back to exec engine");
    return nullptr;
  }
  ++im.counters.compiles;
  auto art = tryOpen(soPath, fp, xm, &reason);
  if (art == nullptr) {
    ++im.counters.fallbacks;
    im.failed.insert(fp);
    im.remarks.emit(core::RemarkKind::Backend,
                    "codegen: compiled artifact failed to load for " + entry +
                        ": " + reason + ": falling back to exec engine");
    return nullptr;
  }
  im.insertMem(fp, art, fileSize(soPath));
  im.sweepDisk(dir, soPath);
  im.remarks.emit(core::RemarkKind::Backend,
                  "codegen: compiled " + entry + " (key " + hex + ", " +
                      std::to_string(buildRangeTable(xm).size()) +
                      " ranges)");
  return art;
}

void CodegenCache::clear() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.mem.clear();  // dlcloses via artifact destructors
  im.lru.clear();
  im.memBytes = 0;
  im.failed.clear();
  im.compilers.clear();
  im.warnedNoCompiler = false;
}

CodegenCounters CodegenCache::counters() const {
  Impl& im = impl();
  CodegenCounters out;
  out.compiles = im.counters.compiles.load(std::memory_order_relaxed);
  out.diskHits = im.counters.diskHits.load(std::memory_order_relaxed);
  out.memHits = im.counters.memHits.load(std::memory_order_relaxed);
  out.fallbacks = im.counters.fallbacks.load(std::memory_order_relaxed);
  out.memEvictions = im.counters.memEvictions.load(std::memory_order_relaxed);
  out.diskEvictions =
      im.counters.diskEvictions.load(std::memory_order_relaxed);
  return out;
}

CodegenConfig CodegenCache::config() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.cfg;
}

void CodegenCache::setConfig(CodegenConfig cfg) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.cfg = std::move(cfg);
}

std::string CodegenCache::remarksDump() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.remarks.dump();
}

void CodegenCache::clearRemarks() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.remarks.clear();
}

std::string CodegenCache::cacheDirInUse() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return resolveCacheDir(im.cfg);
}

std::uint64_t CodegenCache::artifactKey(const ExecModule& xm) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::uint64_t key = artifactKeyOf(xm, extraFlagsOf(im.cfg));
  return diskKeyOf(key, SourceEmitter(xm).emit(key));
}

// ---------------------------------------------------------------------------
// Backend.

namespace {

class CodegenBackend final : public ExecBackend {
 public:
  std::string_view name() const override { return "codegen"; }
  std::string_view description() const override {
    return "lowered programs compiled to native code by the host compiler "
           "(falls back to exec)";
  }
  RtVal run(const ir::Module& mod, const ir::Function& fn,
            std::vector<RtVal> args, psim::Machine& machine,
            psim::RankEnv& env) const override {
    std::shared_ptr<const ExecModule> xm =
        compileClosure(mod, fn, machine.runId());
    std::shared_ptr<const CodegenArtifact> art =
        CodegenCache::global().lookup(*xm);
    if (art == nullptr) {
      // Graceful fallback (no compiler / compile failure): run the same
      // lowered program on the exec engine — bit-identical by contract.
      Executor ex(*xm, machine);
      return ex.run(std::move(args), env);
    }
    CodegenExecutor ex(*xm, machine, std::move(art));
    return ex.run(std::move(args), env);
  }
};

}  // namespace

std::unique_ptr<ExecBackend> makeCodegenBackend() {
  return std::make_unique<CodegenBackend>();
}

}  // namespace parad::interp
