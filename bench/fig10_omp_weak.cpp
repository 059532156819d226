// Figure 10 reproduction: LULESH OpenMP weak scaling (per-thread problem
// size fixed; the block grows with the thread count).
#include <cmath>
#include <cstdlib>

#include "bench/bench_common.h"

using namespace parad;
using namespace parad::bench;
using apps::lulesh::Config;

int main() {
  const int kThreads[] = {1, 2, 4, 8, 16, 32, 64};
  struct S {
    const char* name;
    bool ompOpt;
  } series[] = {{"OpenMP", false}, {"OpenMP+OmpOpt", true}};

  header("Fig. 10", "LULESH OpenMP weak scaling (fixed work per thread)",
         "gradient scaling matches the primal; the OmpOpt series shows the "
         "paper's 1-thread anomaly (hoisting helps less without parallel "
         "contention)");
  BenchJson json("fig10_omp_weak");
  Table t({"impl", "threads", "block", "fwd(ns)", "grad(ns)", "overhead",
           "fwd efficiency", "grad efficiency"});
  for (const S& s : series) {
    double fwd1 = 0, grad1 = 0;
    for (int th : kThreads) {
      // Elements scale with the thread count: block = 6 * cbrt(threads).
      int block = static_cast<int>(std::lround(6.0 * std::cbrt(double(th))));
      Config cfg;
      cfg.par = Config::Par::Omp;
      cfg.s = block;
      cfg.nsteps = 5;
      LuleshVariant v{s.name, cfg, s.ompOpt, false};
      PreparedLulesh pl = prepareLulesh(v);
      auto fr = apps::lulesh::runPrimal(pl.mod, cfg, th);
      auto gr = apps::lulesh::runGradient(pl.mod, pl.gi, cfg, th);
      if (th == 1) {
        fwd1 = fr.makespan;
        grad1 = gr.makespan;
      }
      // Weak-scaling efficiency normalized by actual per-thread work (the
      // rounded block sizes are not exactly proportional).
      double work = double(block) * block * block / th;
      double work1 = 6.0 * 6.0 * 6.0;
      t.addRow({s.name, std::to_string(th), std::to_string(block),
                Table::num(fr.makespan, 0), Table::num(gr.makespan, 0),
                Table::num(gr.makespan / fr.makespan, 2),
                Table::num(fwd1 / fr.makespan * work / work1, 2),
                Table::num(grad1 / gr.makespan * work / work1, 2)});
      json.row(std::string(s.name) + " t" + std::to_string(th));
      json.str("impl", s.name);
      json.num("threads", th);
      json.num("block", block);
      json.num("forward_ns", fr.makespan);
      json.stats(gr.makespan, gr.stats, pl.gi.plan);
    }
  }
  t.print();

  // SCALE=1 continues the sweep into heavy oversubscription of the modeled
  // 64-core machine (the virtual-thread dilation path), with a shorter run
  // so the rows stay cheap. Gated so the default JSON stays byte-identical.
  if (std::getenv("SCALE") != nullptr) {
    header("Fig. 10 (scale)",
           "OpenMP weak scaling continued past the core count (SCALE=1)",
           "efficiency degrades smoothly under oversubscription; gradient "
           "stays parallel to the primal");
    Table sc({"impl", "threads", "block", "fwd(ns)", "grad(ns)", "overhead"});
    for (int th : {128, 256, 512}) {
      int block = static_cast<int>(std::lround(6.0 * std::cbrt(double(th))));
      Config cfg;
      cfg.par = Config::Par::Omp;
      cfg.s = block;
      cfg.nsteps = 2;
      LuleshVariant v{"OpenMP+OmpOpt", cfg, true, false};
      PreparedLulesh pl = prepareLulesh(v);
      auto fr = apps::lulesh::runPrimal(pl.mod, cfg, th);
      auto gr = apps::lulesh::runGradient(pl.mod, pl.gi, cfg, th);
      sc.addRow({"OpenMP+OmpOpt", std::to_string(th), std::to_string(block),
                 Table::num(fr.makespan, 0), Table::num(gr.makespan, 0),
                 Table::num(gr.makespan / fr.makespan, 2)});
      json.row(std::string("OpenMP+OmpOpt scale t") + std::to_string(th));
      json.str("impl", "OpenMP+OmpOpt");
      json.num("threads", th);
      json.num("block", block);
      json.num("forward_ns", fr.makespan);
      json.stats(gr.makespan, gr.stats, pl.gi.plan);
    }
    sc.print();
  }
  json.write();
  return 0;
}
