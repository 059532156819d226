// Figure 11 reproduction: hybrid message-passing x OpenMP LULESH scaling.
#include "bench/bench_common.h"

using namespace parad;
using namespace parad::bench;
using apps::lulesh::Config;

int main() {
  struct Combo {
    int rside;
    int threads;
  } combos[] = {{1, 1}, {1, 2}, {1, 4}, {1, 8},
                {2, 1}, {2, 2}, {2, 4}, {2, 8},
                {3, 1}, {3, 2}};

  header("Fig. 11", "hybrid MPI-rank x OpenMP-thread LULESH scaling",
         "the gradient scales with total workers like the primal across the "
         "rank/thread grid");
  BenchJson json("fig11_hybrid");
  Table t({"ranks", "threads", "workers", "fwd(ns)", "grad(ns)", "overhead",
           "fwd speedup", "grad speedup"});
  Config base;
  base.par = Config::Par::Omp;
  base.mp = true;
  base.s = 8;
  base.nsteps = 5;

  double fwd1 = 0, grad1 = 0;
  for (const Combo& c : combos) {
    Config cfg = base;
    cfg.rside = c.rside;
    LuleshVariant v{"hybrid", cfg, true, false};
    PreparedLulesh pl = prepareLulesh(v);
    auto fr = apps::lulesh::runPrimal(pl.mod, cfg, c.threads);
    auto gr = apps::lulesh::runGradient(pl.mod, pl.gi, cfg, c.threads);
    int workers = cfg.ranks() * c.threads;
    // Normalize speedups by total work (weak in ranks, strong in threads).
    double work = double(cfg.ranks());
    if (fwd1 == 0) {
      fwd1 = fr.makespan;
      grad1 = gr.makespan;
    }
    t.addRow({std::to_string(cfg.ranks()), std::to_string(c.threads),
              std::to_string(workers), Table::num(fr.makespan, 0),
              Table::num(gr.makespan, 0),
              Table::num(gr.makespan / fr.makespan, 2),
              Table::num(fwd1 / fr.makespan * work, 2),
              Table::num(grad1 / gr.makespan * work, 2)});
    // Appended, not `"r" + ...`: GCC 12 at -O3 reports a false -Wrestrict
    // on that form.
    std::string row = "r";
    row += std::to_string(cfg.ranks());
    row += " t";
    row += std::to_string(c.threads);
    json.row(row);
    json.num("ranks", cfg.ranks());
    json.num("threads", c.threads);
    json.num("workers", workers);
    json.num("forward_ns", fr.makespan);
    json.stats(gr.makespan, gr.stats, pl.gi.plan);
  }
  t.print();
  json.write();
  return 0;
}
