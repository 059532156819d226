// Figure 9 (bottom row) reproduction: miniBUDE thread strong scaling.
// Series: OpenMP, OpenMP+OmpOpt, jlite tasks ("Julia Threads"); OmpOpt does
// not apply to the task-based variant, exactly as in the paper.
#include "bench/bench_common.h"

using namespace parad;
using namespace parad::bench;
using apps::minibude::Config;

int main() {
  const int kThreads[] = {1, 2, 4, 8, 16, 32, 64};
  struct S {
    const char* name;
    Config::Par par;
    bool jlite;
    bool ompOpt;
  } series[] = {
      {"OpenMP", Config::Par::Omp, false, false},
      {"OpenMP+OmpOpt", Config::Par::Omp, false, true},
      {"jlite Tasks", Config::Par::JliteTasks, true, false},
  };

  header("Fig. 9 (bottom)",
         "miniBUDE thread strong scaling, 256 poses",
         "plain-OpenMP gradient overhead grows with threads, OmpOpt keeps it "
         "flat (no caching at all once loads are hoisted); jlite overhead is "
         "higher (boxed-array indirection) but still scales");
  BenchJson json("fig9_threads_bude");
  Table t({"impl", "threads", "fwd(ns)", "grad(ns)", "overhead",
           "grad speedup", "cacheKB"});
  for (const S& s : series) {
    Config cfg;
    cfg.par = s.par;
    cfg.jliteMem = s.jlite;
    cfg.poses = 256;
    cfg.ligAtoms = 8;
    cfg.protAtoms = 24;
    ir::Module mod = apps::minibude::build(cfg);
    apps::minibude::prepare(mod, s.ompOpt);
    core::GradInfo gi = apps::minibude::buildGradient(mod);
    double grad1 = 0;
    for (int th : kThreads) {
      Config c = cfg;
      // Task count tracks the team size for the jlite variant (Julia spawns
      // one task per thread).
      c.jlTasks = th;
      ir::Module* m = &mod;
      ir::Module rebuilt;
      core::GradInfo gi2 = gi;
      if (s.par == Config::Par::JliteTasks) {
        rebuilt = apps::minibude::build(c);
        apps::minibude::prepare(rebuilt, s.ompOpt);
        gi2 = apps::minibude::buildGradient(rebuilt);
        m = &rebuilt;
      }
      auto fr = apps::minibude::runPrimal(*m, c, th);
      auto gr = apps::minibude::runGradient(*m, gi2, c, th);
      if (th == 1) grad1 = gr.makespan;
      t.addRow({s.name, std::to_string(th), Table::num(fr.makespan, 0),
                Table::num(gr.makespan, 0),
                Table::num(gr.makespan / fr.makespan, 2),
                Table::num(grad1 / gr.makespan, 2),
                Table::num(double(gr.stats.cacheBytes) / 1e3, 1)});
      json.row(std::string(s.name) + " t" + std::to_string(th));
      json.str("impl", s.name);
      json.num("threads", th);
      json.num("forward_ns", fr.makespan);
      json.stats(gr.makespan, gr.stats, gi2.plan);
    }
  }
  t.print();
  json.write();
  return 0;
}
