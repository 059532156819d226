// Figure 9 (top row) reproduction: LULESH thread-parallel strong scaling.
// Series: OpenMP, OpenMP+OmpOpt (parallel-region load hoisting), RAJA.
// The paper's CoDiPack column is absent by construction: the taping baseline
// cannot differentiate shared-memory parallelism (§VIII).
#include "bench/bench_common.h"

using namespace parad;
using namespace parad::bench;
using apps::lulesh::Config;

int main() {
  const int kThreads[] = {1, 2, 4, 8, 16, 32, 64};
  struct S {
    const char* name;
    Config::Par par;
    bool ompOpt;
  } series[] = {
      {"OpenMP", Config::Par::Omp, false},
      {"OpenMP+OmpOpt", Config::Par::Omp, true},
      {"RAJA", Config::Par::Raja, true},
  };

  Config cfg;
  cfg.par = Config::Par::Omp;
  cfg.s = 12;  // fixed block (the paper uses 96 on native hardware)
  cfg.nsteps = 10;

  header("Fig. 9 (top)",
         "LULESH thread strong scaling, block 12^3, 10 iterations",
         "flat gradient overhead; OmpOpt lowers overhead by hoisting loads "
         "(less reverse-pass caching); socket knee at 32 threads; gradient "
         "scaling matches the primal");
  BenchJson json("fig9_threads_lulesh");
  Table t({"impl", "threads", "fwd(ns)", "grad(ns)", "overhead",
           "fwd speedup", "grad speedup", "cacheMB"});
  for (const S& s : series) {
    Config c = cfg;
    c.par = s.par;
    LuleshVariant v{s.name, c, s.ompOpt, false};
    PreparedLulesh pl = prepareLulesh(v);
    double fwd1 = 0, grad1 = 0;
    for (int th : kThreads) {
      auto fr = apps::lulesh::runPrimal(pl.mod, c, th);
      auto gr = apps::lulesh::runGradient(pl.mod, pl.gi, c, th);
      if (th == 1) {
        fwd1 = fr.makespan;
        grad1 = gr.makespan;
      }
      t.addRow({s.name, std::to_string(th), Table::num(fr.makespan, 0),
                Table::num(gr.makespan, 0),
                Table::num(gr.makespan / fr.makespan, 2),
                Table::num(fwd1 / fr.makespan, 2),
                Table::num(grad1 / gr.makespan, 2),
                Table::num(double(gr.stats.cacheBytes) / 1e6, 2)});
      json.row(std::string(s.name) + " t" + std::to_string(th));
      json.str("impl", s.name);
      json.num("threads", th);
      json.num("forward_ns", fr.makespan);
      json.stats(gr.makespan, gr.stats, pl.gi.plan);
    }
  }
  t.print();
  json.write();
  return 0;
}
