// The three proxy-app workloads: LULESH (OpenMP and MPI variants) and
// miniBUDE on the codegen engine. Each runs reverse-mode gradients back to
// back on fresh Machines, exactly as a user of the library would: build,
// prepare, differentiate, lower (or compile), then per gradient allocate
// inputs in the machine, run every rank, and read the results back.
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "src/apps/lulesh/lulesh.h"
#include "src/apps/lulesh/lulesh_ref.h"
#include "src/apps/minibude/minibude.h"
#include "src/core/plan.h"
#include "src/interp/codegen.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/support/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using parad::i64;
using parad::Rng;
namespace core = parad::core;
namespace interp = parad::interp;
namespace ir = parad::ir;
namespace psim = parad::psim;
namespace lulesh = parad::apps::lulesh;
namespace minibude = parad::apps::minibude;

/// One argument of one rank: an f64 buffer allocated in the machine (read
/// back after the run when `readback`), or an i64 scalar.
struct Arg {
  bool ptr = false;
  std::vector<double> init;
  i64 ival = 0;
  bool readback = false;
};
using RankArgs = std::vector<Arg>;

Arg buf(std::vector<double> init, bool readback = false) {
  return Arg{true, std::move(init), 0, readback};
}
Arg scalar(i64 v) { return Arg{false, {}, v, false}; }

struct Output {
  std::vector<double> values;  // read-back buffers, rank-major, arg order
  double virtualNs = 0;
  psim::RunStats stats;
  std::uint64_t schedSteps = 0;
};

/// Same gradient bit for bit, same virtual time, same dispatch count.
bool sameRun(const Output& a, const Output& b) {
  return a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(double)) == 0 &&
         std::memcmp(&a.virtualNs, &b.virtualNs, sizeof(double)) == 0 &&
         a.stats.instsExecuted == b.stats.instsExecuted;
}

double relErr(double got, double want) {
  return std::abs(got - want) / std::max(std::abs(want), 1e-300);
}

std::string fmt(const char* f, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// Primal values must match a native reference element by element.
Check elementwise(const std::string& name, const double* got,
                  const std::vector<double>& want, double tol) {
  double worst = 0;
  for (std::size_t k = 0; k < want.size(); ++k)
    worst = std::max(worst, relErr(got[k], want[k]));
  return Check{name, worst <= tol,
               fmt("max rel err %.3g (tol %.1g)", worst, tol)};
}

/// §VII fast-mode check along a seeded direction: <grad, d> against a
/// central finite difference of a reference objective.
Check directional(const std::string& name, double proj, double fd) {
  double tol = 1e-4 * std::max(1.0, std::abs(fd));
  return Check{name, std::abs(proj - fd) <= tol,
               fmt("<grad,d> %.12g vs FD %.12g (tol %.3g)", proj, fd, tol)};
}

std::vector<double> direction(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> d(n);
  for (double& x : d) x = rng.uniform(-1, 1);
  return d;
}

constexpr double kFdStep = 1e-6;
constexpr double kPrimalTol = 1e-10;
constexpr double kCorrupt = 1e-3;  // relative shift of a corrupted reference

class AppWorkload : public Workload {
 public:
  std::vector<Check> check(bool corrupt) override {
    Tracer off;
    first_ = execute(gi_.name, gradArgs_, off, 0, Tracer::kNone);
    std::vector<Check> out;
    referenceChecks(first_, corrupt, out);
    Output again = execute(gi_.name, gradArgs_, off, 0, Tracer::kNone);
    out.push_back(Check{"repeat_identical", sameRun(first_, again),
                        "second gradient equals the first bit for bit, with "
                        "the same virtual ns and instruction count"});
    if (engine_ == "codegen") {
      auto c = interp::CodegenCache::global().counters();
      out.push_back(Check{"codegen_no_fallback", c.fallbacks == 0,
                          "codegen fallbacks " + std::to_string(c.fallbacks)});
    }
    referenceOk_ = true;
    for (const Check& c : out) referenceOk_ = referenceOk_ && c.ok;
    last_ = first_;
    return out;
  }

  LoopResult loop(double seconds, Tracer& t,
                  const std::string& samplePrefix) override {
    LoopResult r;
    SampleLog lat(samplePrefix + "0.bin");
    auto& pc = interp::ProgramCache::global();
    auto& cg = interp::CodegenCache::global();
    std::uint64_t hits0 = pc.hits(), memHits0 = cg.counters().memHits,
                  fallbacks0 = cg.counters().fallbacks;
    r.startNs = nowNs();
    std::int64_t stop = r.startNs + static_cast<std::int64_t>(seconds * 1e9);
    while (r.attempted == 0 || nowNs() < stop) {
      std::uint64_t id = nextId_++;
      std::int64_t s = nowNs();
      bool ok = false;
      {
        Scope g(t, "gradient", id, Tracer::kNone);
        try {
          Output o = execute(gi_.name, gradArgs_, t, id, g.handle());
          Scope v(t, "verify", id, g.handle());
          ok = referenceOk_ && sameRun(o, first_);
          last_ = std::move(o);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "gradient %llu failed: %s\n",
                       static_cast<unsigned long long>(id), e.what());
        }
      }
      lat.add(s, nowNs());
      ++r.attempted;
      if (!ok) ++r.failed;
    }
    r.endNs = nowNs();
    if (!lat.finish()) throw std::runtime_error("cannot write " + lat.path());
    r.sampleFiles.push_back(lat.path());
    // A silent fallback would measure the wrong engine.
    if (cg.counters().fallbacks != fallbacks0) r.failed = r.attempted;
    double n = static_cast<double>(r.attempted);
    hitsPerGrad_ = static_cast<double>(pc.hits() - hits0) / n;
    memHitsPerGrad_ = static_cast<double>(cg.counters().memHits - memHits0) / n;
    return r;
  }

  void counters(JsonObject& out) override {
    const psim::RunStats& s = last_.stats;
    auto cg = interp::CodegenCache::global().counters();
    out.count("interp.insts", s.instsExecuted)
        .num("psim.virtual_ns", last_.virtualNs)
        .count("psim.sched_steps", last_.schedSteps)
        .count("psim.atomic_ops", s.atomicOps)
        .count("psim.peak_live_bytes", s.peakLiveBytes)
        .count("fabric.messages", s.messages)
        .count("fabric.bytes_sent", s.bytesSent)
        .count("fabric.collective_stages", s.collectiveStages)
        .count("core.cache_bytes", s.cacheBytes)
        .num("interp.program_cache_hits", hitsPerGrad_)
        .count("interp.program_cache_misses",
               interp::ProgramCache::global().misses())
        .count("codegen.compiles", cg.compiles)
        .num("codegen.mem_hits", memHitsPerGrad_)
        .count("codegen.fallbacks", cg.fallbacks);
  }

  void probeAfterSetup(Tracer& t) override {
    Scope s(t, "core.plan", 0, Tracer::kNone);
    core::planGradient(mod_, primal_, gc_);
  }

 protected:
  /// IR build -> passes -> AD -> lowering (-> native compile), each layer
  /// in its own span.
  void compile(Tracer& t, const std::function<ir::Module()>& build,
               const std::function<void(ir::Module&)>& prepare) {
    int root = t.begin("setup", 0, Tracer::kNone);
    {
      Scope s(t, "ir.build", 0, root);
      mod_ = build();
    }
    {
      Scope s(t, "passes.prepare", 0, root);
      prepare(mod_);
    }
    {
      Scope s(t, "core.grad_gen", 0, root);
      gi_ = core::generateGradient(mod_, primal_, gc_);
      parad::passes::optimizeGradient(mod_, gi_.name);
    }
    std::shared_ptr<const interp::ExecModule> xm;
    {
      Scope s(t, "interp.lower", 0, root);
      xm = interp::compileClosure(mod_, mod_.get(gi_.name));
    }
    if (engine_ == "codegen") {
      Scope s(t, "codegen.compile", 0, root);
      if (!interp::CodegenCache::global().lookup(*xm))
        throw std::runtime_error(
            "codegen fell back to exec: no usable host compiler");
    }
    t.end(root);
  }

  /// One run of `fn` on a fresh Machine over every rank.
  Output execute(const std::string& fn, const std::vector<RankArgs>& args,
                 Tracer& t, std::uint64_t id, int parent) const {
    Output o;
    int setupSpan = t.begin("psim.machine_setup", id, parent);
    psim::Machine m;
    std::vector<std::vector<interp::RtVal>> vals(args.size());
    std::vector<std::vector<psim::RtPtr>> back(args.size());
    for (std::size_t r = 0; r < args.size(); ++r) {
      for (const Arg& a : args[r]) {
        if (!a.ptr) {
          vals[r].push_back(interp::RtVal::I(a.ival));
          continue;
        }
        psim::RtPtr p = m.mem().alloc(ir::Type::F64,
                                      static_cast<i64>(a.init.size()),
                                      m.socketOfRank(static_cast<int>(r)));
        for (std::size_t k = 0; k < a.init.size(); ++k)
          m.mem().atF(p, static_cast<i64>(k)) = a.init[k];
        vals[r].push_back(interp::RtVal::P(p));
        if (a.readback) back[r].push_back(p);
      }
    }
    const ir::Function& f = mod_.get(fn);
    t.end(setupSpan);
    {
      Scope run(t, "psim.run", id, parent);
      o.virtualNs = m.run({ranks_, threads_}, [&](psim::RankEnv& env) {
        Scope s(t, "interp.run", id, run.handle(), env.rank + 1);
        interp::Interpreter it(mod_, m, engine_);
        it.run(f, vals[static_cast<std::size_t>(env.rank)], env);
      });
    }
    Scope rb(t, "psim.readback", id, parent);
    for (std::size_t r = 0; r < args.size(); ++r)
      for (psim::RtPtr p : back[r]) {
        i64 n = m.mem().get(p).count;
        for (i64 k = 0; k < n; ++k) o.values.push_back(m.mem().atF(p, k));
      }
    o.stats = m.stats();
    o.schedSteps = m.sched().lastRunTelemetry().steps;
    return o;
  }

  virtual void referenceChecks(const Output& first, bool corrupt,
                               std::vector<Check>& out) = 0;

  ir::Module mod_;
  core::GradConfig gc_;
  core::GradInfo gi_;
  std::string primal_;
  std::string engine_ = "exec";
  int ranks_ = 1, threads_ = 1;
  std::vector<RankArgs> gradArgs_;
  Output first_, last_;
  bool referenceOk_ = false;
  std::uint64_t nextId_ = 1;
  double hitsPerGrad_ = 0, memHitsPerGrad_ = 0;
};

// ---------------------------------------------------------------- LULESH

/// The library's Sedov-like initial state with a seeded relative
/// perturbation of energy and volume, so each seed is its own input.
lulesh::State luleshState(const lulesh::Config& cfg, int rank,
                          std::uint64_t seed) {
  lulesh::State st = lulesh::initialState(cfg, rank);
  Rng rng(subSeed(seed, 100 + static_cast<std::uint64_t>(rank)));
  for (double& x : st.e) x *= 1.0 + 0.05 * rng.uniform(-1, 1);
  for (double& x : st.v) x *= 1.0 + 0.02 * rng.uniform(-1, 1);
  return st;
}

class Lulesh : public AppWorkload {
 public:
  Lulesh(const lulesh::Config& cfg, int threads, std::uint64_t seed)
      : cfg_(cfg), seed_(seed) {
    primal_ = "lulesh";
    gc_.activeArg = {true, true, true, false, false, false};
    ranks_ = cfg.ranks();
    threads_ = threads;
    for (int r = 0; r < ranks_; ++r) {
      states_.push_back(luleshState(cfg, r, seed));
      const lulesh::State& st = states_.back();
      RankArgs a = primalArgs(st);
      a[0].readback = true;  // final energies: the primal output
      a.push_back(buf(std::vector<double>(st.e.size(), 1.0), true));
      a.push_back(buf(std::vector<double>(st.v.size(), 0.0), true));
      a.push_back(buf(std::vector<double>(st.u.size(), 0.0), true));
      gradArgs_.push_back(std::move(a));
    }
  }

  void setup(Tracer& t) override {
    compile(t, [&] { return lulesh::build(cfg_); },
            [](ir::Module& m) { lulesh::prepare(m); });
  }

 protected:
  RankArgs primalArgs(const lulesh::State& st) const {
    return {buf(st.e), buf(st.v), buf(st.u), scalar(cfg_.s),
            scalar(cfg_.nsteps), scalar(cfg_.rside)};
  }

  std::size_t perRank() const {
    return static_cast<std::size_t>(3 * cfg_.elems() + cfg_.nodes());
  }
  const double* finalE(const Output& o, int r) const {
    return o.values.data() + perRank() * static_cast<std::size_t>(r);
  }

  /// <grad, d> over (e, v, u) of every rank, with d drawn from the seed.
  double projection(const Output& o, std::vector<std::vector<double>>& dirs) {
    double proj = 0;
    std::size_t ne = static_cast<std::size_t>(cfg_.elems());
    for (int r = 0; r < ranks_; ++r) {
      const double* g = finalE(o, r) + ne;  // de, dv, du follow final e
      dirs.push_back(direction(subSeed(seed_, 200 + static_cast<std::uint64_t>(r)),
                               perRank() - ne));
      for (std::size_t k = 0; k < perRank() - ne; ++k)
        proj += g[k] * dirs.back()[k];
    }
    return proj;
  }

  /// The rank's state shifted by h along its direction.
  lulesh::State shifted(int r, const std::vector<double>& d, double h) const {
    lulesh::State st = states_[static_cast<std::size_t>(r)];
    std::size_t k = 0;
    for (auto* field : {&st.e, &st.v, &st.u})
      for (double& x : *field) x += h * d[k++];
    return st;
  }

  lulesh::Config cfg_;
  std::uint64_t seed_;
  std::vector<lulesh::State> states_;
};

/// Single block, 64 virtual threads: the primal and the finite difference
/// both come from the native RefSim, never from the VM.
class LuleshOmp : public Lulesh {
 public:
  using Lulesh::Lulesh;

 protected:
  void referenceChecks(const Output& first, bool corrupt,
                       std::vector<Check>& out) override {
    auto refRun = [&](const lulesh::State& st) {
      lulesh::RefSim<double> ref(cfg_.s);
      ref.e = st.e;
      ref.v = st.v;
      ref.u = st.u;
      ref.run(cfg_.nsteps);
      return ref;
    };
    lulesh::RefSim<double> ref = refRun(states_[0]);
    if (corrupt)
      for (double& x : ref.e) x *= 1.0 + kCorrupt;
    out.push_back(elementwise("primal_vs_refsim", finalE(first, 0), ref.e,
                              kPrimalTol));
    std::vector<std::vector<double>> dirs;
    double proj = projection(first, dirs);
    double fd = (refRun(shifted(0, dirs[0], kFdStep)).totalEnergy() -
                 refRun(shifted(0, dirs[0], -kFdStep)).totalEnergy()) /
                (2 * kFdStep);
    if (corrupt) fd = fd * (1.0 + kCorrupt) + 1.0;
    out.push_back(directional("gradient_vs_refsim_fd", proj, fd));
  }
};

/// 4x4x4 rank cube of small blocks with halo exchange and an allreduce
/// timestep. RefSim has no decomposition, so the finite difference comes
/// from plain primal runs of the same program; the AD's own forward pass
/// must agree with that primal too.
class LuleshMp : public Lulesh {
 public:
  using Lulesh::Lulesh;

 protected:
  void referenceChecks(const Output& first, bool corrupt,
                       std::vector<Check>& out) override {
    Tracer off;
    auto objective = [&](const std::vector<std::vector<double>>* dirs,
                         double h, Output* keep) {
      std::vector<RankArgs> args;
      for (int r = 0; r < ranks_; ++r) {
        lulesh::State st = dirs ? shifted(r, (*dirs)[static_cast<std::size_t>(r)], h)
                                : states_[static_cast<std::size_t>(r)];
        RankArgs a = primalArgs(st);
        a[0].readback = true;
        args.push_back(std::move(a));
      }
      Output o = execute(primal_, args, off, 0, Tracer::kNone);
      double sum = 0;
      for (double x : o.values) sum += x;
      if (keep) *keep = std::move(o);
      return sum;
    };
    Output plain;
    objective(nullptr, 0, &plain);
    std::size_t ne = static_cast<std::size_t>(cfg_.elems());
    double worst = 0;
    for (int r = 0; r < ranks_; ++r)
      for (std::size_t k = 0; k < ne; ++k) {
        double want = plain.values[static_cast<std::size_t>(r) * ne + k];
        if (corrupt) want *= 1.0 + kCorrupt;
        worst = std::max(worst, relErr(finalE(first, r)[k], want));
      }
    out.push_back(Check{"primal_vs_plain_run", worst <= kPrimalTol,
                        fmt("max rel err %.3g (tol %.1g)", worst, kPrimalTol)});
    std::vector<std::vector<double>> dirs;
    double proj = projection(first, dirs);
    double fd = (objective(&dirs, kFdStep, nullptr) -
                 objective(&dirs, -kFdStep, nullptr)) /
                (2 * kFdStep);
    if (corrupt) fd = fd * (1.0 + kCorrupt) + 1.0;
    out.push_back(directional("gradient_vs_primal_fd", proj, fd));
  }
};

// -------------------------------------------------------------- miniBUDE

class BudeCodegen : public AppWorkload {
 public:
  BudeCodegen(const minibude::Config& cfg, int threads, std::uint64_t seed)
      : cfg_(cfg), seed_(seed) {
    primal_ = "bude";
    engine_ = "codegen";
    gc_.activeArg = {true, true, false, true, false, false, false};
    threads_ = threads;
    deck_ = minibude::makeDeck(cfg, static_cast<unsigned>(subSeed(seed, 300)));
    std::size_t P = static_cast<std::size_t>(cfg.poses);
    gradArgs_.push_back(
        {buf(deck_.poses), buf(deck_.lig), buf(deck_.prot),
         buf(std::vector<double>(P, 0.0), true), scalar(cfg.poses),
         scalar(cfg.ligAtoms), scalar(cfg.protAtoms),
         buf(std::vector<double>(deck_.poses.size(), 0.0), true),
         buf(std::vector<double>(deck_.lig.size(), 0.0), true),
         buf(std::vector<double>(P, 1.0))});
  }

  void setup(Tracer& t) override {
    compile(t, [&] { return minibude::build(cfg_); },
            [](ir::Module& m) { minibude::prepare(m); });
  }

 protected:
  void referenceChecks(const Output& first, bool corrupt,
                       std::vector<Check>& out) override {
    std::size_t P = static_cast<std::size_t>(cfg_.poses);
    std::vector<double> ref(P);
    for (std::size_t p = 0; p < P; ++p)
      ref[p] = minibude::refPoseEnergy(cfg_, deck_, static_cast<int>(p)) *
               (corrupt ? 1.0 + kCorrupt : 1.0);
    out.push_back(elementwise("energies_vs_ref_pose_energy",
                              first.values.data(), ref, kPrimalTol));

    std::size_t np = deck_.poses.size(), nl = deck_.lig.size();
    std::vector<double> d = direction(subSeed(seed_, 301), np + nl);
    const double* g = first.values.data() + P;  // dposes, then dlig
    double proj = 0;
    for (std::size_t k = 0; k < np + nl; ++k) proj += g[k] * d[k];
    auto objective = [&](double h) {
      minibude::Deck dk = deck_;
      for (std::size_t k = 0; k < np; ++k) dk.poses[k] += h * d[k];
      for (std::size_t k = 0; k < nl; ++k) dk.lig[k] += h * d[np + k];
      double sum = 0;
      for (int p = 0; p < cfg_.poses; ++p)
        sum += minibude::refPoseEnergy(cfg_, dk, p);
      return sum;
    };
    double fd = (objective(kFdStep) - objective(-kFdStep)) / (2 * kFdStep);
    if (corrupt) fd = fd * (1.0 + kCorrupt) + 1.0;
    out.push_back(directional("gradient_vs_ref_pose_energy_fd", proj, fd));
  }

  minibude::Config cfg_;
  std::uint64_t seed_;
  minibude::Deck deck_;
};

}  // namespace

// Sizes: on a 4-vCPU x86 VM one 20-second run yields 200-450 gradients of
// each app, well inside [100, 1000), so the reported tail is p90 in every
// run and rests on more than 10 samples beyond it.

std::unique_ptr<Workload> makeLuleshOmp(std::uint64_t seed) {
  lulesh::Config cfg;
  cfg.par = lulesh::Config::Par::Omp;
  cfg.s = 8;
  cfg.nsteps = 10;
  return std::make_unique<LuleshOmp>(cfg, 64, seed);
}

std::unique_ptr<Workload> makeLuleshMp(std::uint64_t seed) {
  lulesh::Config cfg;
  cfg.par = lulesh::Config::Par::Serial;
  cfg.mp = true;
  cfg.rside = 4;
  cfg.s = 2;
  cfg.nsteps = 2;
  return std::make_unique<LuleshMp>(cfg, 1, seed);
}

std::unique_ptr<Workload> makeBudeCodegen(std::uint64_t seed) {
  minibude::Config cfg;
  cfg.par = minibude::Config::Par::Omp;
  cfg.poses = 256;
  cfg.ligAtoms = 8;
  cfg.protAtoms = 96;
  return std::make_unique<BudeCodegen>(cfg, 64, seed);
}

}  // namespace perfbench
