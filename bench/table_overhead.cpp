// Headline overhead table (paper abstract): "On benchmarks with 64 threads
// or nodes, we find a differentiation overhead of 0.8-3.4x on C++ and
// 5.4-12.5x on Julia." Reproduces the per-variant gradient/forward overhead
// at maximum modeled parallelism.
#include "bench/bench_common.h"

using namespace parad;
using namespace parad::bench;

int main() {
  header("Overhead table (abstract)",
         "gradient/forward overhead at 64 threads or 64 ranks",
         "C++ variants in a low band, jlite (Julia) variants in a clearly "
         "higher band (boxed-array caching)");
  BenchJson json("table_overhead");
  Table t({"benchmark", "variant", "parallelism", "fwd(ns)", "grad(ns)",
           "overhead"});

  using LCfg = apps::lulesh::Config;
  struct LRow {
    const char* name;
    LCfg::Par par;
    bool mp, jlite;
    int rside, threads, s;
  } lrows[] = {
      {"LULESH C++ OpenMP", LCfg::Par::Omp, false, false, 1, 64, 12},
      {"LULESH C++ MPI", LCfg::Par::Serial, true, false, 4, 1, 6},
      {"LULESH C++ hybrid", LCfg::Par::Omp, true, false, 2, 8, 8},
      {"LULESH RAJA", LCfg::Par::Raja, false, false, 1, 64, 12},
      {"LULESH jlite MPI", LCfg::Par::Serial, true, true, 4, 1, 6},
  };
  for (const LRow& r : lrows) {
    LCfg cfg;
    cfg.par = r.par;
    cfg.mp = r.mp;
    cfg.jliteMem = r.jlite;
    cfg.rside = r.rside;
    cfg.s = r.s;
    cfg.nsteps = 10;
    LuleshVariant v{r.name, cfg, true, false};
    PreparedLulesh pl = prepareLulesh(v);
    double fwd = apps::lulesh::runPrimal(pl.mod, cfg, r.threads).makespan;
    auto gr = apps::lulesh::runGradient(pl.mod, pl.gi, cfg, r.threads);
    t.addRow({r.name, r.jlite ? "jlite" : "C++",
              std::to_string(cfg.ranks()) + "x" + std::to_string(r.threads),
              Table::num(fwd, 0), Table::num(gr.makespan, 0),
              Table::num(gr.makespan / fwd, 2)});
    json.row(r.name);
    json.str("benchmark", r.name);
    json.str("variant", r.jlite ? "jlite" : "cpp");
    json.num("ranks", cfg.ranks());
    json.num("threads", r.threads);
    json.num("forward_ns", fwd);
    json.stats(gr.makespan, gr.stats, pl.gi.plan);
  }

  using BCfg = apps::minibude::Config;
  struct BRow {
    const char* name;
    BCfg::Par par;
    bool jlite;
    int threads;
  } brows[] = {
      {"miniBUDE C++ OpenMP", BCfg::Par::Omp, false, 64},
      {"miniBUDE jlite tasks", BCfg::Par::JliteTasks, true, 64},
  };
  for (const BRow& r : brows) {
    BCfg cfg;
    cfg.par = r.par;
    cfg.jliteMem = r.jlite;
    cfg.poses = 256;
    cfg.ligAtoms = 8;
    cfg.protAtoms = 24;
    cfg.jlTasks = r.threads;
    ir::Module mod = apps::minibude::build(cfg);
    apps::minibude::prepare(mod, true);
    core::GradInfo gi = apps::minibude::buildGradient(mod);
    double fwd = apps::minibude::runPrimal(mod, cfg, r.threads).makespan;
    auto gr = apps::minibude::runGradient(mod, gi, cfg, r.threads);
    t.addRow({r.name, r.jlite ? "jlite" : "C++",
              "1x" + std::to_string(r.threads), Table::num(fwd, 0),
              Table::num(gr.makespan, 0), Table::num(gr.makespan / fwd, 2)});
    json.row(r.name);
    json.str("benchmark", r.name);
    json.str("variant", r.jlite ? "jlite" : "cpp");
    json.num("ranks", 1);
    json.num("threads", r.threads);
    json.num("forward_ns", fwd);
    json.stats(gr.makespan, gr.stats, gi.plan);
  }
  t.print();
  std::printf("\npaper bands: C++ 0.8-3.4x, Julia 5.4-12.5x\n");
  json.write();
  return 0;
}
