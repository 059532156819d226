// Ablation (paper §V-E, §VIII): optimization around differentiation.
//   (a) OpenMPOpt-style invariant/load hoisting *before* AD: fewer cached
//       values, less cache memory, faster gradients. The plan remark streams
//       of the two variants are diffed to show exactly which values moved
//       from trip-indexed cache arrays to recompute.
//   (b) Fork merging *after* AD (the Fig. 4 optimization): fewer parallel
//       region launches in the gradient.
#include "bench/bench_common.h"
#include "src/passes/passes.h"

using namespace parad;
using namespace parad::bench;

int main() {
  header("Ablation: optimize-around-AD",
         "pre-AD hoisting (OpenMPOpt stand-in) and post-AD fork merging",
         "hoisting shrinks reverse-pass caches and gradient time (§VIII); "
         "merging the adjacent aug/reverse forks trims fork overhead");

  BenchJson json("ablation_opt");

  // ---- (a) hoisting, LULESH OpenMP + miniBUDE OpenMP ----
  Table a({"app", "ompopt", "cached vals", "recompute", "cacheMB", "grad(ns)",
           "overhead"});
  {
    apps::lulesh::Config cfg;
    cfg.par = apps::lulesh::Config::Par::Omp;
    cfg.s = 10;
    cfg.nsteps = 8;
    core::RemarkStream unopt;
    for (bool opt : {false, true}) {
      ir::Module mod = apps::lulesh::build(cfg);
      apps::lulesh::prepare(mod, opt);
      core::RemarkStream remarks;
      core::GradConfig gc;
      gc.activeArg = {true, true, true, false, false, false};
      gc.remarks = &remarks;
      core::GradInfo gi = core::generateGradient(mod, "lulesh", gc);
      passes::optimizeGradient(mod, gi.name);
      double fwd = apps::lulesh::runPrimal(mod, cfg, 16).makespan;
      auto gr = apps::lulesh::runGradient(mod, gi, cfg, 16);
      a.addRow({"LULESH omp", opt ? "on" : "off",
                std::to_string(gi.numCachedValues),
                std::to_string(gi.plan.cacheRecompute),
                Table::num(double(gr.stats.cacheBytes) / 1e6, 2),
                Table::num(gr.makespan, 0),
                Table::num(gr.makespan / fwd, 2)});
      json.row(std::string("lulesh_omp ompopt_") + (opt ? "on" : "off"));
      json.str("app", "lulesh_omp");
      json.str("ompopt", opt ? "on" : "off");
      json.stats(gr.makespan, gr.stats, gi.plan);
      if (!opt)
        unopt = remarks;
      else
        reportDecisionFlips(unopt, remarks, "ompopt on");
    }
  }
  {
    apps::minibude::Config cfg;
    cfg.par = apps::minibude::Config::Par::Omp;
    cfg.poses = 128;
    cfg.ligAtoms = 8;
    cfg.protAtoms = 24;
    for (bool opt : {false, true}) {
      ir::Module mod = apps::minibude::build(cfg);
      apps::minibude::prepare(mod, opt);
      core::GradInfo gi = apps::minibude::buildGradient(mod);
      double fwd = apps::minibude::runPrimal(mod, cfg, 16).makespan;
      auto gr = apps::minibude::runGradient(mod, gi, cfg, 16);
      a.addRow({"miniBUDE omp", opt ? "on" : "off",
                std::to_string(gi.numCachedValues),
                std::to_string(gi.plan.cacheRecompute),
                Table::num(double(gr.stats.cacheBytes) / 1e6, 2),
                Table::num(gr.makespan, 0),
                Table::num(gr.makespan / fwd, 2)});
      json.row(std::string("minibude_omp ompopt_") + (opt ? "on" : "off"));
      json.str("app", "minibude_omp");
      json.str("ompopt", opt ? "on" : "off");
      json.stats(gr.makespan, gr.stats, gi.plan);
    }
  }
  a.print();

  // ---- (b) fork merging on the generated gradient ----
  std::printf("\n");
  Table bT({"app", "fork-merge", "merged", "grad(ns)"});
  {
    apps::minibude::Config cfg;
    cfg.par = apps::minibude::Config::Par::Omp;
    cfg.poses = 128;
    cfg.ligAtoms = 6;
    cfg.protAtoms = 12;
    for (bool merge : {false, true}) {
      ir::Module mod = apps::minibude::build(cfg);
      apps::minibude::prepare(mod, true);
      core::GradConfig gc;
      gc.activeArg = {true, true, false, true, false, false, false};
      core::GradInfo gi = core::generateGradient(mod, "bude", gc);
      int merged = 0;
      if (merge) merged = passes::mergeAdjacentForks(mod, gi.name);
      auto gr = apps::minibude::runGradient(mod, gi, cfg, 16);
      bT.addRow({"miniBUDE omp", merge ? "on" : "off", std::to_string(merged),
                 Table::num(gr.makespan, 0)});
      json.row(std::string("minibude_omp fork_merge_") +
               (merge ? "on" : "off"));
      json.str("app", "minibude_omp");
      json.str("fork_merge", merge ? "on" : "off");
      json.num("merged_forks", merged);
      json.stats(gr.makespan, gr.stats, gi.plan);
    }
  }
  bT.print();
  json.write();
  return 0;
}
