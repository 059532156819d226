// Ablation (paper §VI-A1): shadow accumulation kind selection.
// The thread-locality analysis chooses serial / per-thread-reduction /
// atomic accumulation; forcing the legal-but-slow all-atomic fallback (and
// separately disabling the reduction slots) degrades the gradient. The plan
// stage's remark stream is diffed across modes so the table is accompanied
// by the exact decisions each ablation flipped.
#include "bench/bench_common.h"
#include "src/passes/passes.h"

using namespace parad;
using namespace parad::bench;

namespace {

struct Mode {
  const char* name;
  const char* tag;
  bool allAtomic;
  bool reductionSlots;
};

const Mode kModes[] = {
    {"auto (locality analysis)", "auto", false, true},
    {"no reduction slots", "no_reduction_slots", false, false},
    {"all atomic (fallback)", "all_atomic", true, true},
};

}  // namespace

int main() {
  header("Ablation: accumulation kind",
         "serial / reduction / atomic selection for shadow increments",
         "the locality analysis preserves parallel scaling; the all-atomic "
         "fallback is correct but slower, with far more atomic ops");

  BenchJson json("ablation_accum");
  Table t({"app", "mode", "threads", "grad(ns)", "atomics", "serial/red/atomic",
           "grad speedup"});
  {
    apps::lulesh::Config cfg;
    cfg.par = apps::lulesh::Config::Par::Omp;
    cfg.s = 10;
    cfg.nsteps = 6;
    core::RemarkStream autoRemarks;
    for (const Mode& m : kModes) {
      double g1 = 0;
      core::RemarkStream remarks;
      for (int th : {1, 16, 64}) {
        ir::Module mod = apps::lulesh::build(cfg);
        apps::lulesh::prepare(mod, true);
        core::GradConfig gc;
        gc.activeArg = {true, true, true, false, false, false};
        gc.allAtomic = m.allAtomic;
        gc.enableReductionSlots = m.reductionSlots;
        if (th == 1) gc.remarks = &remarks;
        core::GradInfo gi = core::generateGradient(mod, "lulesh", gc);
        passes::optimizeGradient(mod, gi.name);
        auto gr = apps::lulesh::runGradient(mod, gi, cfg, th);
        if (th == 1) g1 = gr.makespan;
        t.addRow({"LULESH omp", m.name, std::to_string(th),
                  Table::num(gr.makespan, 0),
                  std::to_string(gr.stats.atomicOps),
                  std::to_string(gi.plan.accumSerial) + "/" +
                      std::to_string(gi.plan.accumReductionSlot) + "/" +
                      std::to_string(gi.plan.accumAtomic),
                  Table::num(g1 / gr.makespan, 2)});
        json.row(std::string("lulesh_omp ") + m.tag + " t" +
                 std::to_string(th));
        json.str("app", "lulesh_omp");
        json.str("mode", m.tag);
        json.num("threads", th);
        json.stats(gr.makespan, gr.stats, gi.plan);
      }
      if (m.allAtomic == false && m.reductionSlots)
        autoRemarks = remarks;
      else
        reportDecisionFlips(autoRemarks, remarks, m.name);
    }
  }
  {
    // miniBUDE's per-pose accumulator lives inside the parallel region, so
    // the locality analysis proves it thread-local and accumulates serially;
    // the fallback turns every pair update into an atomic RMW.
    apps::minibude::Config cfg;
    cfg.par = apps::minibude::Config::Par::Omp;
    cfg.poses = 128;
    cfg.ligAtoms = 8;
    cfg.protAtoms = 24;
    core::RemarkStream autoRemarks;
    for (const Mode& m : kModes) {
      double g1 = 0;
      core::RemarkStream remarks;
      for (int th : {1, 16, 64}) {
        ir::Module mod = apps::minibude::build(cfg);
        apps::minibude::prepare(mod, true);
        core::GradConfig gc;
        gc.activeArg = {true, true, false, true, false, false, false};
        gc.allAtomic = m.allAtomic;
        gc.enableReductionSlots = m.reductionSlots;
        if (th == 1) gc.remarks = &remarks;
        core::GradInfo gi = core::generateGradient(mod, "bude", gc);
        passes::optimizeGradient(mod, gi.name);
        auto gr = apps::minibude::runGradient(mod, gi, cfg, th);
        if (th == 1) g1 = gr.makespan;
        t.addRow({"miniBUDE omp", m.name, std::to_string(th),
                  Table::num(gr.makespan, 0),
                  std::to_string(gr.stats.atomicOps),
                  std::to_string(gi.plan.accumSerial) + "/" +
                      std::to_string(gi.plan.accumReductionSlot) + "/" +
                      std::to_string(gi.plan.accumAtomic),
                  Table::num(g1 / gr.makespan, 2)});
        json.row(std::string("minibude_omp ") + m.tag + " t" +
                 std::to_string(th));
        json.str("app", "minibude_omp");
        json.str("mode", m.tag);
        json.num("threads", th);
        json.stats(gr.makespan, gr.stats, gi.plan);
      }
      if (m.allAtomic == false && m.reductionSlots)
        autoRemarks = remarks;
      else
        reportDecisionFlips(autoRemarks, remarks, m.name);
    }
  }
  t.print();
  json.write();
  return 0;
}
