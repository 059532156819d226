#include "src/interp/exec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>

namespace parad::interp {

using ir::Op;
using ir::Type;
using psim::RtPtr;

// Writes the program's folded constants into their frame slots (lower.h:
// constant instructions never reach the dispatch loop).
static void initConsts(const ExecProgram& p, std::vector<RtVal>& f) {
  for (const ConstInit& ci : p.constInits) {
    RtVal& v = f[static_cast<std::size_t>(ci.slot)];
    if (ci.isF)
      v.u.f = ci.f;
    else
      v.u.i = ci.i;
  }
}

RtVal Executor::run(std::vector<RtVal> args, psim::RankEnv& env) {
  const ExecProgram& entry = xm_.programs[0];
  PARAD_CHECK(args.size() == entry.numParams,
              "wrong argument count calling @", entry.name);
  RankRun rr;
  rr.env = &env;
  ThreadState main;
  main.w = env.main;  // copy in; copied back out at the end
  main.tid = 0;
  main.nthreads = 1;
  rr.ts = &main;
  rr.root = &main;
  int taskWorkers = machine_.config().taskWorkers;
  rr.taskWorkerFree.assign(
      static_cast<std::size_t>(taskWorkers > 0 ? taskWorkers
                                               : env.threadsPerRank),
      0.0);

  Frame f(static_cast<std::size_t>(entry.numValues));
  for (std::size_t i = 0; i < args.size(); ++i)
    f[static_cast<std::size_t>(entry.paramSlots[i])] = args[i];
  initConsts(entry, f);
  beginRun(rr);
  execBlock(entry, entry.entryBlock, f.data(), rr);
  env.main = main.w;
  machine_.stats().instsExecuted += rr.insts;
  return rr.retVal;
}

RtVal Executor::callProgram(const ExecProgram& callee, const RtVal* args,
                            std::size_t nArgs, RankRun& rr) {
  PARAD_CHECK(++rr.callDepth < machine_.config().maxCallDepth,
              "call depth limit exceeded (recursion?)");
  rr.ts->w.advance(ct_.callCost);
  // Recycle frame storage across calls: assign() reuses capacity, so a hot
  // call site stops paying an allocation per invocation after warm-up.
  Frame f;
  if (!rr.framePool.empty()) {
    f = std::move(rr.framePool.back());
    rr.framePool.pop_back();
  }
  f.assign(static_cast<std::size_t>(callee.numValues), RtVal{});
  for (std::size_t i = 0; i < nArgs; ++i)
    f[static_cast<std::size_t>(callee.paramSlots[i])] = args[i];
  initConsts(callee, f);
  RtVal savedRet = rr.retVal;
  rr.retVal = RtVal{};
  execBlock(callee, callee.entryBlock, f.data(), rr);
  RtVal out = rr.retVal;
  rr.retVal = savedRet;
  --rr.callDepth;
  rr.framePool.push_back(std::move(f));
  return out;
}

Executor::Flow Executor::execFork(const ExecProgram& p, const ExecInst& in,
                                  RtVal* F, RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 nReq = F[in.a[0]].u.i;
  int n = nReq > 0 ? static_cast<int>(nReq) : env.threadsPerRank;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
  int tidArg = body.arg;

  ThreadState* parent = rr.ts;
  parent->w.advance(c.forkBase + c.forkPerThread * n);

  double dil =
      std::max(1.0, static_cast<double>(n) * env.ranks /
                        machine_.config().totalCores()) *
      machine_.rankSlowdown(env.rank);

  // Thread contexts, pinned to modeled cores.
  std::vector<ThreadState> threads(static_cast<std::size_t>(n));
  machine_.removeWorkers(parent->w.socket, 1);
  for (int t = 0; t < n; ++t) {
    ThreadState& ts = threads[static_cast<std::size_t>(t)];
    ts.w.clock = parent->w.clock;
    ts.w.core = machine_.coreOfRankThread(env.rank, t);
    ts.w.socket = machine_.socketOfCore(ts.w.core);
    ts.w.dilation = dil;
    ts.tid = t;
    ts.nthreads = n;
    machine_.addWorkers(ts.w.socket, 1);
  }

  // Per-thread private storage for the values a thread reads across a
  // barrier (precomputed at lowering time into the program's pool).
  const std::int32_t* priv = p.pool.data() + in.privBase;
  std::size_t nPriv = static_cast<std::size_t>(in.privCount);
  std::vector<std::vector<RtVal>> store(static_cast<std::size_t>(n),
                                        std::vector<RtVal>(nPriv));
  auto saveTo = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < nPriv; ++k) s[k] = F[priv[k]];
  };
  auto restoreFrom = [&](int t) {
    auto& s = store[static_cast<std::size_t>(t)];
    for (std::size_t k = 0; k < nPriv; ++k) F[priv[k]] = s[k];
  };

  // Execute the pre-split barrier segments, thread by thread per segment.
  for (std::int32_t si = 0; si < in.segCount; ++si) {
    const ExecSegment& seg =
        p.segments[static_cast<std::size_t>(in.segBase + si)];
    for (int t = 0; t < n; ++t) {
      ThreadState& ts = threads[static_cast<std::size_t>(t)];
      restoreFrom(t);
      F[tidArg] = RtVal::I(t);
      rr.ts = &ts;
      Flow fl = execRange(p, seg.begin, seg.end, seg.trailingConsts, F, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a fork body");
      saveTo(t);
    }
    if (si + 1 == in.segCount) break;
    // Barrier: align all thread clocks.
    double latest = 0;
    for (const ThreadState& ts : threads)
      latest = std::max(latest, ts.w.clock);
    latest += c.barrierBase + c.barrierPerThread * n;
    for (ThreadState& ts : threads) ts.w.clock = latest;
  }

  // Join.
  double latest = parent->w.clock;
  for (const ThreadState& ts : threads) {
    latest = std::max(latest, ts.w.clock);
    machine_.removeWorkers(ts.w.socket, 1);
  }
  machine_.addWorkers(parent->w.socket, 1);
  parent->w.clock = latest;
  parent->w.advance(c.joinBase + c.joinPerThread * n);
  rr.ts = parent;
  return Flow::Normal;
}

Executor::Flow Executor::execParallelFor(const ExecProgram& p,
                                         const ExecInst& in, RtVal* F,
                                         RankRun& rr) {
  psim::RankEnv& env = *rr.env;
  const psim::CostModel& c = machine_.config().cost;
  i64 lo = F[in.a[0]].u.i;
  i64 hi = F[in.a[1]].u.i;
  const ExecBlock& body = p.blocks[static_cast<std::size_t>(in.blockA)];
  int ivArg = body.arg;
  if (hi <= lo) return Flow::Normal;

  ThreadState* parent = rr.ts;
  // Nested parallelism executes serially on the current thread.
  int n = parent->nthreads > 1 ? 1 : env.threadsPerRank;
  if (n == 1) {
    for (i64 i = lo; i < hi; ++i) {
      F[ivArg] = RtVal::I(i);
      parent->w.advance(ct_.loopIter);
      Flow fl = execRange(p, body.begin, body.end, body.trailingConsts, F, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a parallel loop body");
    }
    return Flow::Normal;
  }

  parent->w.advance(c.forkBase + c.forkPerThread * n);
  double dil =
      std::max(1.0, static_cast<double>(n) * env.ranks /
                        machine_.config().totalCores()) *
      machine_.rankSlowdown(env.rank);
  machine_.removeWorkers(parent->w.socket, 1);

  i64 len = hi - lo;
  i64 chunk = (len + n - 1) / n;
  double latest = parent->w.clock;
  for (int t = 0; t < n; ++t) {
    i64 begin = lo + t * chunk;
    i64 end = std::min(hi, begin + chunk);
    ThreadState ts;
    ts.w.clock = parent->w.clock;
    ts.w.core = machine_.coreOfRankThread(env.rank, t);
    ts.w.socket = machine_.socketOfCore(ts.w.core);
    ts.w.dilation = dil;
    ts.tid = t;
    ts.nthreads = n;
    machine_.addWorkers(ts.w.socket, 1);
    rr.ts = &ts;
    for (i64 i = begin; i < end; ++i) {
      F[ivArg] = RtVal::I(i);
      ts.w.advance(ct_.loopIter);
      Flow fl = execRange(p, body.begin, body.end, body.trailingConsts, F, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a parallel loop body");
    }
    machine_.removeWorkers(ts.w.socket, 1);
    latest = std::max(latest, ts.w.clock);
  }
  machine_.addWorkers(parent->w.socket, 1);
  parent->w.clock = latest;
  parent->w.advance(c.joinBase + c.joinPerThread * n);
  rr.ts = parent;
  return Flow::Normal;
}

namespace {

// Every ir::Op in declaration order, by how execRange dispatches it:
//   A  region-free frame arithmetic: a handler in the main slot and one in
//      the fused second slot (lower.cpp's fusableOp pairs exactly these);
//   P  a handler of its own in the main slot only;
//   C  a machine-state instruction, run by execComplexInst.
// The static_assert below checks the order against ir::Op.
#define PARAD_EXEC_OPS(A, P, C)                                             \
  P(ConstF) P(ConstI) P(ConstB)                                             \
  A(FAdd) A(FSub) A(FMul) A(FDiv) A(FNeg)                                   \
  A(Sqrt) A(Sin) A(Cos) A(Exp) A(Log) A(Pow) A(FAbs) A(FMin) A(FMax)        \
  A(Cbrt)                                                                   \
  A(IAdd) A(ISub) A(IMul) A(IDiv) A(IRem) A(IMinOp) A(IMaxOp)               \
  A(ICmpEq) A(ICmpNe) A(ICmpLt) A(ICmpLe) A(ICmpGt) A(ICmpGe)               \
  A(FCmpLt) A(FCmpLe) A(FCmpGt) A(FCmpGe) A(FCmpEq)                         \
  A(BAnd) A(BOr) A(BNot) A(Select) A(IToF) A(FToI)                          \
  C(Alloc) C(Free) P(Load) P(Store) A(PtrOffset) C(AtomicAddF) C(Memset0)   \
  P(Call) P(CallIndirect) P(Return)                                         \
  P(For) P(While) P(Yield) P(If)                                            \
  C(ParallelFor) C(Fork) P(Workshare) P(BarrierOp) P(ThreadIdOp)            \
  P(NumThreadsOp) C(Spawn) C(SyncOp)                                        \
  P(MpRank) P(MpSize) C(MpIsend) C(MpIrecv) C(MpWaitOp) C(MpSend)           \
  C(MpRecv) C(MpAllreduce) C(MpBarrier)                                     \
  P(OmpParallelFor) C(JlAllocArray) P(GcPreserveBegin) P(GcPreserveEnd)

#define PARAD_OP_ENUM(name) Op::name,
constexpr Op kOpOrder[] = {
    PARAD_EXEC_OPS(PARAD_OP_ENUM, PARAD_OP_ENUM, PARAD_OP_ENUM)};
#undef PARAD_OP_ENUM
constexpr bool opOrderMatches() {
  for (std::size_t i = 0; i < std::size(kOpOrder); ++i)
    if (static_cast<std::size_t>(kOpOrder[i]) != i) return false;
  return std::size(kOpOrder) ==
         static_cast<std::size_t>(Op::GcPreserveEnd) + 1;
}
static_assert(opOrderMatches(),
              "PARAD_EXEC_OPS must list every ir::Op in declaration order");

/// A math intrinsic's result, and the caller's clock handed back unchanged.
struct MathOut {
  double v, clk;
};
/// Runs a libm intrinsic out of line. The dispatch loop's clock goes in and
/// comes back as a value, so it is never live across the libm call: x86-64
/// has no callee-saved vector registers, and one double live across a call
/// is enough for GCC to keep the clock in memory for the whole loop.
[[gnu::noinline]] MathOut mathOp(Op op, double x, double y, double clk) {
  switch (op) {
    case Op::Sqrt: return {std::sqrt(x), clk};
    case Op::Sin: return {std::sin(x), clk};
    case Op::Cos: return {std::cos(x), clk};
    case Op::Exp: return {std::exp(x), clk};
    case Op::Log: return {std::log(x), clk};
    case Op::Cbrt: return {std::cbrt(x), clk};
    case Op::Pow: return {std::pow(x, y), clk};
    default: PARAD_UNREACHABLE("not a math intrinsic");
  }
}

/// An element the memory fast path may touch directly, and the 8-byte
/// charge (before dilation) of accessing it.
struct FastElem {
  char* at = nullptr;  // nullptr: take loadElem / storeElem
  double charge = 0;
};
/// The memory fast path's check, the same one generated code makes (pd_res
/// in codegen.cpp): the object is in the view table, the index is below its
/// count (0 once freed), the element is not a pointer, and the home
/// socket's charge memo is current. Whatever it rejects takes exec's own
/// Load/Store, which charges and fails exactly as before.
inline FastElem fastElem(const psim::ObjViewTable& t,
                         const psim::Machine::MemCharge* memo,
                         const int* workers, int socket, RtPtr ptr, i64 idx) {
  FastElem e;
  if (static_cast<std::uint64_t>(ptr.obj) >= static_cast<std::uint64_t>(t.n))
    return e;
  const psim::ObjView& o = t.data[ptr.obj];
  const i64 k = ptr.off + idx;
  if (static_cast<std::uint64_t>(k) >= static_cast<std::uint64_t>(o.count) ||
      o.elem == static_cast<std::int32_t>(Type::PtrF64))
    return e;
  const psim::Machine::MemCharge& m = memo[o.home];
  if (m.sharers != workers[o.home]) return e;
  e.at = static_cast<char*>(o.data) + k * 8;
  e.charge = socket == o.home ? m.local8 : m.remote8;
  return e;
}

}  // namespace

// Threaded dispatch (labels as values, GCC and Clang): every handler ends in
// its own indirect jump to the next instruction's handler, and a fused second
// slot dispatches through a table of its own.
Executor::Flow Executor::execRange(const ExecProgram& p, std::int32_t pc,
                                   std::int32_t end,
                                   std::int32_t trailingConsts, RtVal* F,
                                   RankRun& rr) {
  // Stable for the duration of this range: every nested construct restores
  // rr.ts before returning.
  ThreadState& ts = *rr.ts;
  psim::WorkerCtx& w = ts.w;
  // The clock lives in `clk` while the range runs; a charge is `clk += cost
  // * dil`, WorkerCtx::advance's expression. It is written back to w.clock
  // before every callout (complex ops, calls, nested ranges, Return, the
  // slow memory path, a failing check, the range-exit probes) and read back
  // after, so nothing outside this loop ever sees a stale clock.
  double clk = w.clock;
  const double dil = w.dilation;
  const int socket = w.socket;
  const psim::ObjViewTable& views = machine_.mem().views();
  const psim::Machine::MemCharge* const memo = machine_.memCharges();
  const int* const workers = machine_.workerCounts();
  // Dispatch count lives in a register for the loop's duration; every exit
  // path below flushes it (exception paths need not: RunStats is only
  // updated when a run completes).
  std::uint64_t nd = 0;
  const ExecInst* ip = p.code.data() + pc;
  const ExecInst* const stop = p.code.data() + end;

#define PARAD_MAIN(name) &&op_##name,
#define PARAD_COMPLEX(name) &&op_complex,
#define PARAD_FUSED(name) &&fz_##name,
#define PARAD_NOT_FUSED(name) &&fz_bad,
  static const void* const kMain[] = {
      PARAD_EXEC_OPS(PARAD_MAIN, PARAD_MAIN, PARAD_COMPLEX)};
  static const void* const kFused[] = {
      PARAD_EXEC_OPS(PARAD_FUSED, PARAD_NOT_FUSED, PARAD_NOT_FUSED)};
#undef PARAD_MAIN
#undef PARAD_COMPLEX
#undef PARAD_FUSED
#undef PARAD_NOT_FUSED

// Enters the instruction at ip, or leaves the range at its end.
#define DISPATCH()                                                \
  do {                                                            \
    if (ip == stop) goto rangeEnd;                                \
    nd += 1 + static_cast<std::uint64_t>(ip->constsBefore);       \
    goto *kMain[static_cast<std::size_t>(ip->op)];                \
  } while (0)
#define NEXT()  \
  do {          \
    ++ip;       \
    DISPATCH(); \
  } while (0)
// Only arithmetic heads can carry a fused second slot (lower.cpp pairs
// fusable ops only), so only their handlers test op2.
#define NEXT_PAIR()                                                    \
  do {                                                                 \
    if (ip->op2 >= 0) goto *kFused[static_cast<std::size_t>(ip->op2)]; \
    NEXT();                                                            \
  } while (0)
#define SYNC_OUT() (w.clock = clk)
#define SYNC_IN() (clk = w.clock)
#define CHARGE(cost) (clk += ct_.cost * dil)
#define IN(i) F[ip->a[i]]
// One definition per arithmetic op, expanded for the main slot (operands a,
// result) and for the fused slot (a2, result2 and the consts folded between
// the pair). The operands are X(i), the result R.
#define ARITH(name, body)                                 \
  op_##name : {                                           \
    const std::int32_t* const A = ip->a.data();           \
    RtVal& R = F[ip->result];                             \
    body;                                                 \
    NEXT_PAIR();                                          \
  }                                                       \
  fz_##name : {                                           \
    nd += 1 + static_cast<std::uint64_t>(ip->consts2);    \
    const std::int32_t* const A = ip->a2.data();          \
    RtVal& R = F[ip->result2];                            \
    body;                                                 \
    NEXT();                                               \
  }
#define X(i) F[A[i]]
#define MATH(op, x, y)                                 \
  do {                                                 \
    const MathOut m = mathOp(Op::op, (x), (y), clk);   \
    clk = m.clk;                                       \
    R.u.f = m.v;                                       \
  } while (0)
#define SETB(cond) (R.u.i = (cond) ? 1 : 0)

  DISPATCH();

  op_ConstF: F[ip->result].u.f = ip->fconst; NEXT();
  op_ConstI: F[ip->result].u.i = ip->iconst; NEXT();
  op_ConstB: F[ip->result].u.i = ip->iconst; NEXT();

  ARITH(FAdd, CHARGE(flop); R.u.f = X(0).u.f + X(1).u.f)
  ARITH(FSub, CHARGE(flop); R.u.f = X(0).u.f - X(1).u.f)
  ARITH(FMul, CHARGE(flop); R.u.f = X(0).u.f * X(1).u.f)
  ARITH(FDiv, CHARGE(fdiv); R.u.f = X(0).u.f / X(1).u.f)
  ARITH(FNeg, CHARGE(flop); R.u.f = -X(0).u.f)
  ARITH(Sqrt, CHARGE(special); MATH(Sqrt, X(0).u.f, 0.0))
  ARITH(Sin, CHARGE(special); MATH(Sin, X(0).u.f, 0.0))
  ARITH(Cos, CHARGE(special); MATH(Cos, X(0).u.f, 0.0))
  ARITH(Exp, CHARGE(special); MATH(Exp, X(0).u.f, 0.0))
  ARITH(Log, CHARGE(special); MATH(Log, X(0).u.f, 0.0))
  ARITH(Pow, CHARGE(powCost); MATH(Pow, X(0).u.f, X(1).u.f))
  ARITH(FAbs, CHARGE(minmax); R.u.f = std::fabs(X(0).u.f))
  ARITH(FMin, CHARGE(minmax); R.u.f = std::min(X(0).u.f, X(1).u.f))
  ARITH(FMax, CHARGE(minmax); R.u.f = std::max(X(0).u.f, X(1).u.f))
  ARITH(Cbrt, CHARGE(special); MATH(Cbrt, X(0).u.f, 0.0))

  ARITH(IAdd, CHARGE(intOp); R.u.i = X(0).u.i + X(1).u.i)
  ARITH(ISub, CHARGE(intOp); R.u.i = X(0).u.i - X(1).u.i)
  ARITH(IMul, CHARGE(intOp); R.u.i = X(0).u.i * X(1).u.i)
  ARITH(IDiv, CHARGE(intDiv); if (X(1).u.i == 0) {
    SYNC_OUT();
    fail("integer division by zero");
  } R.u.i = X(0).u.i / X(1).u.i)
  ARITH(IRem, CHARGE(intDiv); if (X(1).u.i == 0) {
    SYNC_OUT();
    fail("integer remainder by zero");
  } R.u.i = X(0).u.i % X(1).u.i)
  ARITH(IMinOp, CHARGE(intOp); R.u.i = std::min(X(0).u.i, X(1).u.i))
  ARITH(IMaxOp, CHARGE(intOp); R.u.i = std::max(X(0).u.i, X(1).u.i))

  ARITH(ICmpEq, CHARGE(intOp); SETB(X(0).u.i == X(1).u.i))
  ARITH(ICmpNe, CHARGE(intOp); SETB(X(0).u.i != X(1).u.i))
  ARITH(ICmpLt, CHARGE(intOp); SETB(X(0).u.i < X(1).u.i))
  ARITH(ICmpLe, CHARGE(intOp); SETB(X(0).u.i <= X(1).u.i))
  ARITH(ICmpGt, CHARGE(intOp); SETB(X(0).u.i > X(1).u.i))
  ARITH(ICmpGe, CHARGE(intOp); SETB(X(0).u.i >= X(1).u.i))
  ARITH(FCmpLt, CHARGE(intOp); SETB(X(0).u.f < X(1).u.f))
  ARITH(FCmpLe, CHARGE(intOp); SETB(X(0).u.f <= X(1).u.f))
  ARITH(FCmpGt, CHARGE(intOp); SETB(X(0).u.f > X(1).u.f))
  ARITH(FCmpGe, CHARGE(intOp); SETB(X(0).u.f >= X(1).u.f))
  ARITH(FCmpEq, CHARGE(intOp); SETB(X(0).u.f == X(1).u.f))

  ARITH(BAnd, CHARGE(intOp); SETB(X(0).u.i && X(1).u.i))
  ARITH(BOr, CHARGE(intOp); SETB(X(0).u.i || X(1).u.i))
  ARITH(BNot, CHARGE(intOp); SETB(!X(0).u.i))
  ARITH(Select, CHARGE(intOp); R = X(0).u.i ? X(1) : X(2))
  ARITH(IToF, CHARGE(intOp); R.u.f = static_cast<double>(X(0).u.i))
  ARITH(FToI, CHARGE(intOp); R.u.i = static_cast<i64>(X(0).u.f))
  ARITH(PtrOffset, CHARGE(intOp); RtPtr q = X(0).u.p; q.off += X(1).u.i;
        R.u.p = q)

  op_Load: {
    const RtPtr ptr = IN(0).u.p;
    const i64 idx = IN(1).u.i;
    RtVal& dst = F[ip->result];
    const FastElem e = fastElem(views, memo, workers, socket, ptr, idx);
    if (e.at != nullptr) {
      clk += e.charge * dil;
      std::memcpy(&dst.u.i, e.at, 8);
    } else {
      SYNC_OUT();
      loadElem(w, ptr, idx, dst);
      SYNC_IN();
    }
    NEXT();
  }
  op_Store: {
    const RtPtr ptr = IN(0).u.p;
    const i64 idx = IN(1).u.i;
    const RtVal& v = IN(2);
    const FastElem e = fastElem(views, memo, workers, socket, ptr, idx);
    if (e.at != nullptr) {
      clk += e.charge * dil;
      std::memcpy(e.at, &v.u.i, 8);
    } else {
      SYNC_OUT();
      storeElem(w, ptr, idx, v);
      SYNC_IN();
    }
    NEXT();
  }

  op_Call:
    SYNC_OUT();
    {
      if (ip->trap >= 0)
        fail(xm_.trapMsgs[static_cast<std::size_t>(ip->trap)]);
      const ExecProgram& callee =
          xm_.programs[static_cast<std::size_t>(ip->callee)];
      // The only op whose operands can spill into the pool (wide calls).
      const std::int32_t* ops =
          ip->poolBase >= 0 ? p.pool.data() + ip->poolBase : ip->a.data();
      RtVal argBuf[ExecInst::kInlineOps];
      const RtVal* argPtr = argBuf;
      std::vector<RtVal> argVec;
      if (ip->nOps <= ExecInst::kInlineOps) {
        for (std::size_t i = 0; i < ip->nOps; ++i) argBuf[i] = F[ops[i]];
      } else {
        argVec.reserve(ip->nOps);
        for (std::size_t i = 0; i < ip->nOps; ++i) argVec.push_back(F[ops[i]]);
        argPtr = argVec.data();
      }
      RtVal out = callProgram(callee, argPtr, ip->nOps, rr);
      if (ip->result >= 0) F[ip->result] = out;
    }
    SYNC_IN();
    NEXT();
  op_CallIndirect:
  op_OmpParallelFor:
    SYNC_OUT();
    fail(xm_.trapMsgs[static_cast<std::size_t>(ip->trap)]);
  op_Return:
    if (ip->nOps > 0) rr.retVal = IN(0);
    SYNC_OUT();
    rr.insts += nd;
    return Flow::Return;

  op_For: {
    const i64 lo = IN(0).u.i, hi = IN(1).u.i;
    const ExecBlock& body = p.blocks[static_cast<std::size_t>(ip->blockA)];
    SYNC_OUT();
    for (i64 i = lo; i < hi; ++i) {
      F[body.arg] = RtVal::I(i);
      w.advance(ct_.loopIter);
      if (execRange(p, body.begin, body.end, body.trailingConsts, F, rr) ==
          Flow::Return) {
        rr.insts += nd;
        return Flow::Return;
      }
    }
    SYNC_IN();
    NEXT();
  }
  op_While: {
    const ExecBlock& body = p.blocks[static_cast<std::size_t>(ip->blockA)];
    SYNC_OUT();
    for (i64 iter = 0;; ++iter) {
      PARAD_CHECK(iter < (i64(1) << 32), "runaway while loop");
      F[body.arg] = RtVal::I(iter);
      w.advance(ct_.loopIter);
      rr.yield = false;
      if (execRange(p, body.begin, body.end, body.trailingConsts, F, rr) ==
          Flow::Return) {
        rr.insts += nd;
        return Flow::Return;
      }
      if (!rr.yield) break;
    }
    SYNC_IN();
    NEXT();
  }
  op_Yield: rr.yield = IN(0).u.i != 0; NEXT();
  op_If: {
    CHARGE(intOp);
    SYNC_OUT();
    const Flow fl = execBlock(p, IN(0).u.i ? ip->blockA : ip->blockB, F, rr);
    SYNC_IN();
    if (fl == Flow::Return) {
      rr.insts += nd;
      return Flow::Return;
    }
    NEXT();
  }

  op_Workshare: {
    const i64 lo = IN(0).u.i, hi = IN(1).u.i;
    const ExecBlock& body = p.blocks[static_cast<std::size_t>(ip->blockA)];
    const int tid = ts.tid, n = ts.nthreads;
    CHARGE(workshareInit);
    const i64 len = hi - lo;
    if (len > 0) {
      const i64 chunk = (len + n - 1) / n;
      const i64 begin = lo + tid * chunk;
      const i64 wsEnd = std::min(hi, begin + chunk);
      const bool reversed = ip->iconst != 0;
      SYNC_OUT();
      for (i64 k = begin; k < wsEnd; ++k) {
        const i64 i = reversed ? wsEnd - 1 - (k - begin) : k;
        F[body.arg] = RtVal::I(i);
        w.advance(ct_.loopIter);
        const Flow fl =
            execRange(p, body.begin, body.end, body.trailingConsts, F, rr);
        PARAD_CHECK(fl == Flow::Normal, "return out of a workshare body");
      }
      SYNC_IN();
    }
    NEXT();
  }
  op_BarrierOp:
    // Handled structurally by the fork's precompiled segmentation.
    SYNC_OUT();
    PARAD_UNREACHABLE("barrier outside fork segmentation");
  op_ThreadIdOp: F[ip->result].u.i = ts.tid; NEXT();
  op_NumThreadsOp:
    // Inside a fork: the team size. Outside: the default team size (used
    // e.g. to size thread-indexed AD caches before entering the fork).
    F[ip->result].u.i = ts.nthreads > 1 ? ts.nthreads : rr.env->threadsPerRank;
    NEXT();

  op_MpRank: F[ip->result].u.i = rr.env->rank; NEXT();
  op_MpSize: F[ip->result].u.i = rr.env->ranks; NEXT();

  op_GcPreserveBegin:
    CHARGE(gcCost);
    F[ip->result].u.i = 0;
    NEXT();
  op_GcPreserveEnd:
    CHARGE(gcCost);
    NEXT();

  // Machine-state instructions: one implementation shared with the codegen
  // backend's complex-op callback (see exec.h).
  op_complex: {
    SYNC_OUT();
    const Flow fl = execComplexInst(p, *ip, F, rr);
    SYNC_IN();
    if (fl == Flow::Return) {
      rr.insts += nd;
      return Flow::Return;
    }
    NEXT();
  }

  fz_bad:
    SYNC_OUT();
    PARAD_UNREACHABLE("non-arithmetic op in fused slot");

rangeEnd:
  SYNC_OUT();
#undef DISPATCH
#undef NEXT
#undef NEXT_PAIR
#undef SYNC_OUT
#undef SYNC_IN
#undef CHARGE
#undef IN
#undef ARITH
#undef X
#undef MATH
#undef SETB
  rr.insts += nd + static_cast<std::uint64_t>(trailingConsts);
  // Kill probe, gated to the rank's root thread: fork paths adjust worker
  // counts non-RAII, so unwinding a crash from inside a parallel region
  // would leak them; the root thread is always at a safe unwind point.
  // Probed before the watchdog so a scheduled crash beats a watchdog trip.
  if (rr.ts == rr.root) machine_.checkKill(rr.env->rank, w.clock);
  // Progress watchdog: every loop iteration funnels through a range exit, so
  // checking at the flush bounds runaway (live-locked) rank programs without
  // a per-instruction branch. The time bound comes from the machine (config
  // plus checkpoint-recovery slack), not the raw config.
  std::uint64_t wd = machine_.config().watchdogInsts;
  if (wd != 0 && rr.insts > wd) machine_.failWatchdog(rr.env->rank, rr.insts);
  double tb = machine_.watchdogTimeBound();
  if (tb > 0 && w.clock > tb) machine_.failWatchdogTime(rr.env->rank, w.clock);
  return Flow::Normal;
}

Executor::Flow Executor::execComplexInst(const ExecProgram& p,
                                         const ExecInst& in, RtVal* F,
                                         RankRun& rr) {
  psim::MemoryManager& mem = machine_.mem();
  psim::WorkerCtx& w = rr.ts->w;
  const std::int32_t* ops =
      in.poolBase >= 0 ? p.pool.data() + in.poolBase : in.a.data();
  auto V = [&](std::size_t i) -> RtVal& {
    return F[static_cast<std::size_t>(ops[i])];
  };
  auto setP = [&](RtPtr ptr) {
    F[static_cast<std::size_t>(in.result)].u.p = ptr;
  };

  switch (in.op) {
    case Op::Alloc: {
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8);
      RtPtr ptr = mem.alloc(static_cast<Type>(in.iconst), count, w.socket,
                            (in.flags & ir::kFlagCacheAlloc) != 0,
                            (in.flags & ir::kFlagShadowAlloc) != 0);
      setP(ptr);
      break;
    }
    case Op::Free:
      w.advance(ct_.freeCost);
      mem.free(V(0).u.p);
      break;
    case Op::AtomicAddF: {
      RtPtr ptr = V(0).u.p;
      psim::MemObject& o = mem.get(ptr);
      i64 k = ptr.off + V(1).u.i;
      machine_.chargeAtomic(w, o, k);
      PARAD_CHECK(o.elem == Type::F64 && k >= 0 && k < o.count,
                  "access out of bounds: index ", k, " of ", o.count);
      o.f[static_cast<std::size_t>(k)] += V(2).u.f;
      break;
    }
    case Op::Memset0: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      machine_.chargeMem(w, o.homeSocket, count * 8);
      if (count > 0) {
        PARAD_CHECK(ptr.off >= 0 && ptr.off + count <= o.count,
                    "access out of bounds: index ", ptr.off + count - 1,
                    " of ", o.count);
        std::size_t b = static_cast<std::size_t>(ptr.off);
        std::size_t e = b + static_cast<std::size_t>(count);
        switch (o.elem) {
          case Type::F64:
            std::fill(o.f.begin() + b, o.f.begin() + e, 0.0);
            break;
          case Type::I64:
            std::fill(o.i.begin() + b, o.i.begin() + e, i64{0});
            break;
          case Type::PtrF64:
            std::fill(o.p.begin() + b, o.p.begin() + e, RtPtr{});
            break;
          default: PARAD_UNREACHABLE("bad memset elem");
        }
      }
      break;
    }

    case Op::Spawn: {
      // Eager (serial-elision) execution with list-scheduled virtual timing.
      w.advance(ct_.spawnCost);
      auto& free = rr.taskWorkerFree;
      std::size_t best = 0;
      for (std::size_t k = 1; k < free.size(); ++k)
        if (free[k] < free[best]) best = k;
      ThreadState ts;
      ts.w.clock = std::max(w.clock, free[best]);
      ts.w.core =
          machine_.coreOfRankThread(rr.env->rank, static_cast<int>(best));
      ts.w.socket = machine_.socketOfCore(ts.w.core);
      ts.w.dilation = w.dilation;
      ts.tid = static_cast<int>(best);
      ts.nthreads = static_cast<int>(free.size());
      ThreadState* parent = rr.ts;
      rr.ts = &ts;
      Flow fl = execBlock(p, in.blockA, F, rr);
      PARAD_CHECK(fl == Flow::Normal, "return out of a spawned task");
      rr.ts = parent;
      free[best] = ts.w.clock;
      rr.tasks.push_back(TaskRec{ts.w.clock});
      F[static_cast<std::size_t>(in.result)].u.task =
          static_cast<std::int32_t>(rr.tasks.size() - 1);
      break;
    }
    case Op::SyncOp: {
      std::int32_t id = V(0).u.task;
      PARAD_CHECK(id >= 0 && static_cast<std::size_t>(id) < rr.tasks.size(),
                  "sync on invalid task");
      w.clock =
          std::max(w.clock, rr.tasks[static_cast<std::size_t>(id)].endTime);
      w.advance(ct_.syncCost);
      break;
    }

    case Op::MpIsend: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      PARAD_CHECK(o.elem == Type::F64 && ptr.off + count <= o.count,
                  "isend buffer out of bounds");
      psim::ReqId id = machine_.fabric()->isend(
          rr.env->rank, w, o.f.data() + ptr.off, count,
          static_cast<int>(V(2).u.i), static_cast<int>(V(3).u.i));
      F[static_cast<std::size_t>(in.result)].u.req = id;
      break;
    }
    case Op::MpIrecv: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::ReqId id = machine_.fabric()->irecv(
          rr.env->rank, w, ptr, count, static_cast<int>(V(2).u.i),
          static_cast<int>(V(3).u.i));
      F[static_cast<std::size_t>(in.result)].u.req = id;
      break;
    }
    case Op::MpWaitOp:
      machine_.fabric()->wait(rr.env->rank, w, V(0).u.req);
      break;
    case Op::MpSend: {
      RtPtr ptr = V(0).u.p;
      i64 count = V(1).u.i;
      psim::MemObject& o = mem.get(ptr);
      PARAD_CHECK(o.elem == Type::F64 && ptr.off + count <= o.count,
                  "send buffer out of bounds");
      machine_.fabric()->send(rr.env->rank, w, o.f.data() + ptr.off, count,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      break;
    }
    case Op::MpRecv:
      machine_.fabric()->recv(rr.env->rank, w, V(0).u.p, V(1).u.i,
                              static_cast<int>(V(2).u.i),
                              static_cast<int>(V(3).u.i));
      break;
    case Op::MpAllreduce: {
      RtPtr sp = V(0).u.p;
      i64 count = V(2).u.i;
      psim::MemObject& so = mem.get(sp);
      PARAD_CHECK(so.elem == Type::F64 && sp.off + count <= so.count,
                  "allreduce send buffer out of bounds");
      std::vector<i64> winners;
      machine_.fabric()->allreduce(
          rr.env->rank, w, static_cast<ir::ReduceKind>(in.iconst),
          so.f.data() + sp.off, V(1).u.p, count,
          in.nOps == 4 ? &winners : nullptr);
      if (in.nOps == 4) {
        RtPtr wp = V(3).u.p;
        for (i64 k = 0; k < count; ++k)
          mem.atI(wp, k) = winners[static_cast<std::size_t>(k)];
      }
      break;
    }
    case Op::MpBarrier:
      machine_.fabric()->barrier(rr.env->rank, w);
      break;

    case Op::JlAllocArray: {
      // GC'd boxed array: a 1-slot descriptor object pointing at the data.
      i64 count = V(0).u.i;
      machine_.chargeAlloc(w, count * 8 + 8);
      w.advance(ct_.gcCost);
      RtPtr data = mem.alloc(Type::F64, count, w.socket);
      RtPtr desc = mem.alloc(Type::PtrF64, 1, w.socket);
      mem.atP(desc, 0) = data;
      setP(desc);
      break;
    }

    case Op::ParallelFor:
      return execParallelFor(p, in, F, rr);
    case Op::Fork:
      return execFork(p, in, F, rr);

    default:
      PARAD_UNREACHABLE("non-complex op in execComplexInst");
  }
  return Flow::Normal;
}

}  // namespace parad::interp
