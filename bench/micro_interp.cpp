// Micro-benchmark (google-benchmark): real-time dispatch throughput of the
// execution engines — the lowered flat-program executor and the native
// codegen backend vs the recursive tree-walker (DESIGN.md §9, §13). Unlike
// the figure harnesses, the quantity of interest here is *wall* time per
// executed IR instruction; the virtual clocks of the engines are
// bit-identical by construction (test_exec.cpp) so only host-side dispatch
// cost differs.
//
// The codegen lane is opt-in (PARAD_BENCH_CODEGEN=1): it invokes the host
// compiler at warm-up, and keeping it out of the default run leaves
// BENCH_micro_interp.json byte-identical for existing consumers. Besides the
// three dispatch kernels it runs the end-to-end check beside them: the
// LULESH OpenMP gradient on exec and on codegen, in gradients per second,
// with codegen's one-time compile reported separately.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/interp/codegen.h"
#include "src/interp/interp.h"
#include "src/ir/builder.h"
#include "src/psim/sim.h"

using namespace parad;
using ir::Type;
using ir::Value;

namespace {

bool codegenLaneEnabled() {
  const char* v = std::getenv("PARAD_BENCH_CODEGEN");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

// Straight-line arithmetic in a hot serial loop: the pure dispatch path.
ir::Module scalarLoopModule() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), len, [&](Value i) {
    auto v = b.load(x, i);
    for (int k = 0; k < 6; ++k) v = b.fadd(b.fmul(v, b.constF(0.999)), b.constF(1e-3));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

// A tiny leaf called in a loop: stresses per-call setup (frame creation,
// callee resolution, arg marshalling) — the path the lowering pre-resolves.
ir::Module callHeavyModule() {
  ir::Module mod;
  {
    ir::FunctionBuilder leaf(mod, "leaf", {Type::F64}, Type::F64);
    auto v = leaf.param(0);
    leaf.ret(leaf.fadd(leaf.fmul(v, v), leaf.constF(1.0)));
    leaf.finish();
  }
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), len, [&](Value i) {
    auto v = b.call("leaf", {b.load(x, i)});
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

// Fork with barrier-delimited segments and workshared loops: the structural
// path (segmentation, per-thread private save/restore) that the lowering
// precomputes.
ir::Module forkWorkshareModule() {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto len = b.param(1);
  b.emitFork(b.constI(4), [&](Value) {
    b.emitWorkshare(b.constI(0), len, [&](Value i) {
      b.store(x, i, b.fmul(b.load(x, i), b.constF(1.0000001)));
    });
    b.barrier();
    b.emitWorkshare(b.constI(0), len, [&](Value i) {
      b.store(x, i, b.fadd(b.load(x, i), b.constF(1e-9)));
    });
  });
  b.ret(b.load(x, b.constI(0)));
  b.finish();
  return mod;
}

struct Throughput {
  double instsPerSec = 0;   // best (least-interfered) window
  std::uint64_t insts = 0;  // totals over every window
  double wallNs = 0;
  int reps = 0;
};

/// One engine's measurement lane: a dedicated Machine plus input buffer,
/// warmed up once so one-time costs (lowering, and for codegen the host
/// compile — both amortized across runs in practice, and cached
/// process-wide) do not skew the rate.
class Lane {
 public:
  Lane(const ir::Module& mod, i64 len, std::string engine)
      : mod_(mod), len_(len), engine_(std::move(engine)) {
    p_ = m_.mem().alloc(Type::F64, len, 0);
    for (i64 k = 0; k < len; ++k) m_.mem().atF(p_, k) = 0.5 + 1e-3 * double(k);
    runOnce();  // warm-up (also populates the program/artifact caches)
  }

  /// Repeats the run until ~windowNs of wall time has accumulated and folds
  /// the window's instructions-per-second into the running best.
  void window(double windowNs) {
    std::uint64_t insts0 = m_.stats().instsExecuted;
    auto t0 = std::chrono::steady_clock::now();
    double elapsedNs = 0;
    int reps = 0;
    while (elapsedNs < windowNs) {
      runOnce();
      ++reps;
      elapsedNs = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    }
    std::uint64_t insts = m_.stats().instsExecuted - insts0;
    t_.instsPerSec =
        std::max(t_.instsPerSec, double(insts) / (elapsedNs * 1e-9));
    t_.insts += insts;
    t_.wallNs += elapsedNs;
    t_.reps += reps;
  }

  const Throughput& result() const { return t_; }

 private:
  void runOnce() {
    m_.run({1, 4}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod_, m_, engine_);
      it.run(mod_.get("f"), {interp::RtVal::P(p_), interp::RtVal::I(len_)},
             env);
    });
  }

  const ir::Module& mod_;
  i64 len_;
  std::string engine_;
  psim::Machine m_;
  psim::RtPtr p_;
  Throughput t_;
};

/// Measures one lane per engine with interleaved short windows and reports
/// each engine's best window. External interference (this is a shared host,
/// not a quiet lab machine) can only ever slow a window down, so the max
/// over several windows estimates the undisturbed throughput; alternating
/// the engines window-by-window keeps slow drift from favoring any side.
std::vector<Throughput> measure(const ir::Module& mod, i64 len,
                                const std::vector<std::string>& engines) {
  constexpr int kWindows = 6;
  constexpr double kWindowNs = 6e7;
  std::vector<std::unique_ptr<Lane>> lanes;
  for (const std::string& e : engines)
    lanes.push_back(std::make_unique<Lane>(mod, len, e));
  for (int r = 0; r < kWindows; ++r)
    for (auto& lane : lanes) lane->window(kWindowNs);
  std::vector<Throughput> out;
  for (auto& lane : lanes) out.push_back(lane->result());
  return out;
}

/// The end-to-end row: the paper's main app, LULESH OpenMP (s = 8, 10 steps,
/// 64 threads), as one reverse-mode gradient per run.
struct LuleshRow {
  double execGradsPerSec = 0, codegenGradsPerSec = 0;
  double compileS = 0;     // codegen's one-time host compile
  bool compiled = false;   // false: no usable host compiler
  bool identical = false;  // same gradient, virtual time and dispatch count
};

LuleshRow measureLulesh() {
  namespace lulesh = apps::lulesh;
  lulesh::Config cfg;
  cfg.par = lulesh::Config::Par::Omp;
  cfg.s = 8;
  cfg.nsteps = 10;
  ir::Module mod = lulesh::build(cfg);
  lulesh::prepare(mod);
  core::GradInfo gi = lulesh::buildGradient(mod);
  LuleshRow row;

  // Compile into a fresh directory, so a warm artifact cache cannot hide
  // the compile time.
  auto& cache = interp::CodegenCache::global();
  interp::CodegenConfig saved = cache.config();
  interp::CodegenConfig fresh = saved;
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "parad_micro_XXXXXX").string();
  std::vector<char> dir(tmpl.begin(), tmpl.end());
  dir.push_back('\0');
  if (::mkdtemp(dir.data()) == nullptr) return row;
  fresh.cacheDir = dir.data();
  cache.setConfig(fresh);
  cache.clear();
  auto t0 = std::chrono::steady_clock::now();
  row.compiled =
      cache.lookup(*interp::compileClosure(mod, mod.get(gi.name))) != nullptr;
  row.compileS = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

  std::string savedEngine = interp::defaultEngine();
  auto gradient = [&](const char* engine) {
    interp::setDefaultEngine(engine);
    return lulesh::runGradient(mod, gi, cfg, 64);
  };
  if (row.compiled) {
    lulesh::RunResult a = gradient("exec"), b = gradient("codegen");
    row.identical = a.makespan == b.makespan && a.gradE == b.gradE &&
                    a.gradU == b.gradU &&
                    a.stats.instsExecuted == b.stats.instsExecuted;
    // Alternating windows, best of each, as in measure().
    constexpr int kWindows = 4;
    constexpr double kWindowS = 0.5;
    for (int r = 0; r < kWindows; ++r)
      for (const char* engine : {"exec", "codegen"}) {
        auto w0 = std::chrono::steady_clock::now();
        int n = 0;
        double elapsed = 0;
        while (elapsed < kWindowS) {
          gradient(engine);
          ++n;
          elapsed = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - w0)
                        .count();
        }
        double& best = std::strcmp(engine, "exec") == 0
                           ? row.execGradsPerSec
                           : row.codegenGradsPerSec;
        best = std::max(best, n / elapsed);
      }
  }
  interp::setDefaultEngine(savedEngine);
  cache.setConfig(saved);
  cache.clear();
  std::error_code ec;
  std::filesystem::remove_all(dir.data(), ec);
  return row;
}

void BM_DispatchLowered(benchmark::State& state) {
  ir::Module mod = scalarLoopModule();
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4096, 0);
  for (i64 k = 0; k < 4096; ++k) m.mem().atF(p, k) = 0.5;
  for (auto _ : state) {
    std::uint64_t before = m.stats().instsExecuted;
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "exec");
      it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(4096)}, env);
    });
    state.SetItemsProcessed(state.items_processed() +
                            int64_t(m.stats().instsExecuted - before));
  }
}
BENCHMARK(BM_DispatchLowered);

void BM_DispatchTreeWalk(benchmark::State& state) {
  ir::Module mod = scalarLoopModule();
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4096, 0);
  for (i64 k = 0; k < 4096; ++k) m.mem().atF(p, k) = 0.5;
  for (auto _ : state) {
    std::uint64_t before = m.stats().instsExecuted;
    m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, "tree");
      it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(4096)}, env);
    });
    state.SetItemsProcessed(state.items_processed() +
                            int64_t(m.stats().instsExecuted - before));
  }
}
BENCHMARK(BM_DispatchTreeWalk);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const bool withCodegen = codegenLaneEnabled();

  // cgCriterion: the codegen-over-lowered throughput each kernel must reach
  // for the native backend to earn its keep (ROADMAP).
  struct Kernel {
    const char* name;
    ir::Module mod;
    i64 len;
    double cgCriterion;
  };
  Kernel kernels[] = {
      {"scalar_loop", scalarLoopModule(), 4096, 4},
      {"call_heavy", callHeavyModule(), 4096, 2},
      {"fork_workshare", forkWorkshareModule(), 4096, 2},
  };

  parad::bench::header(
      "micro_interp", "wall-time dispatch throughput, lowered vs tree-walker",
      "lowered executor >= 2x tree-walker instructions/second",
      parad::bench::Clock::Wall);
  if (withCodegen)
    std::printf(
        "codegen lane enabled (PARAD_BENCH_CODEGEN=1); codegen criteria: "
        ">= 4x lowered instructions/second on scalar_loop, >= 2x on "
        "call_heavy and fork_workshare\n");

  std::vector<std::string> engines = {"exec", "tree"};
  if (withCodegen) engines.push_back("codegen");

  parad::bench::BenchJson json("micro_interp");
  double logSum = 0;
  double dispatchSpeedup = 0;
  double codegenDispatchSpeedup = 0;
  int n = 0;
  for (Kernel& k : kernels) {
    std::vector<Throughput> t = measure(k.mod, k.len, engines);
    const Throughput& lo = t[0];
    const Throughput& tw = t[1];
    double speedup = lo.instsPerSec / tw.instsPerSec;
    logSum += std::log(speedup);
    ++n;
    // scalar_loop is the dispatch-bound kernel and therefore the dispatch-
    // throughput headline; call_heavy and fork_workshare spend most of their
    // time in call-frame and fork/workshare machinery shared (by design —
    // identical observable behavior) with the tree-walker, so their ratios
    // measure that machinery, not dispatch.
    bool isDispatchKernel = std::strcmp(k.name, "scalar_loop") == 0;
    if (isDispatchKernel) dispatchSpeedup = speedup;
    std::printf(
        "%-15s lowered %8.2f Minst/s (%d reps)   treewalk %8.2f Minst/s "
        "(%d reps)   speedup %.2fx\n",
        k.name, lo.instsPerSec / 1e6, lo.reps, tw.instsPerSec / 1e6, tw.reps,
        speedup);
    json.row(k.name);
    json.num("len", double(k.len));
    json.num("lowered_insts_per_sec", lo.instsPerSec);
    json.num("lowered_insts", double(lo.insts));
    json.num("lowered_wall_ns", lo.wallNs);
    json.num("lowered_reps", lo.reps);
    json.num("treewalk_insts_per_sec", tw.instsPerSec);
    json.num("treewalk_insts", double(tw.insts));
    json.num("treewalk_wall_ns", tw.wallNs);
    json.num("treewalk_reps", tw.reps);
    json.num("speedup", speedup);
    if (withCodegen) {
      const Throughput& cg = t[2];
      double cgVsLowered = cg.instsPerSec / lo.instsPerSec;
      if (isDispatchKernel) codegenDispatchSpeedup = cgVsLowered;
      std::printf(
          "%-15s codegen %8.2f Minst/s (%d reps)   vs lowered %.2fx "
          "(criterion: >= %.0fx)   vs treewalk %.2fx\n",
          k.name, cg.instsPerSec / 1e6, cg.reps, cgVsLowered, k.cgCriterion,
          cg.instsPerSec / tw.instsPerSec);
      json.num("codegen_insts_per_sec", cg.instsPerSec);
      json.num("codegen_insts", double(cg.insts));
      json.num("codegen_wall_ns", cg.wallNs);
      json.num("codegen_reps", cg.reps);
      json.num("codegen_speedup_vs_lowered", cgVsLowered);
    }
  }
  double geomean = std::exp(logSum / n);
  std::printf("geomean speedup: %.2fx\n", geomean);
  std::printf("dispatch throughput (scalar_loop): %.2fx (criterion: >= 2x)\n",
              dispatchSpeedup);
  if (withCodegen)
    std::printf(
        "codegen dispatch throughput vs lowered (scalar_loop): %.2fx "
        "(criterion: >= 4x)\n",
        codegenDispatchSpeedup);
  json.row("geomean");
  json.num("speedup", geomean);
  json.num("dispatch_speedup", dispatchSpeedup);
  bool identical = true;
  if (withCodegen) {
    json.num("codegen_dispatch_speedup", codegenDispatchSpeedup);
    LuleshRow l = measureLulesh();
    if (!l.compiled) {
      std::printf("lulesh_omp_grad skipped: codegen fell back to exec\n");
    } else {
      std::printf(
          "lulesh_omp_grad exec %6.2f grads/s   codegen %6.2f grads/s   "
          "vs exec %.2fx   codegen compile %.3f s   identical: %s\n",
          l.execGradsPerSec, l.codegenGradsPerSec,
          l.codegenGradsPerSec / l.execGradsPerSec, l.compileS,
          l.identical ? "yes" : "NO");
      json.row("lulesh_omp_grad");
      json.num("exec_grads_per_sec", l.execGradsPerSec);
      json.num("codegen_grads_per_sec", l.codegenGradsPerSec);
      json.num("codegen_speedup_vs_exec",
               l.codegenGradsPerSec / l.execGradsPerSec);
      json.num("codegen_compile_s", l.compileS);
      json.num("identical", l.identical ? 1 : 0);
      identical = l.identical;
    }
  }
  json.write();
  return identical ? 0 : 1;  // engines must agree bit for bit
}
