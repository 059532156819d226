// perfbench harness: runs one workload in this process and writes its raw
// results (set-up time, reference checks, per-gradient latencies, per-layer
// counters, run environment) as JSON for perfbench/run.py to reduce.
//
//   perfbench --workload <name> --seed <n> --mode setup|run
//             [--seconds <s>] [--trace 0|1] [--corrupt-reference]
//             --workdir <dir>
//   perfbench --mode trace-selftest --workdir <dir>
//
// `setup` stops once the first gradient is ready; `run` also checks the
// outputs and runs the timed loop. With --trace 1 the loop is split in
// halves, untraced then traced, and the spans go to <workdir>/trace.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "src/interp/codegen.h"
#include "src/psim/sim.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload, mode = "run", workdir;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--mode") a.mode = val();
    else if (k == "--workdir") a.workdir = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--corrupt-reference") a.corrupt = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workdir.empty()) throw std::runtime_error("--workdir is required");
  if (!(a.seconds > 0)) throw std::runtime_error("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "lulesh_omp_grad") return makeLuleshOmp(seed);
  if (name == "lulesh_mp_grad") return makeLuleshMp(seed);
  if (name == "bude_omp_codegen") return makeBudeCodegen(seed);
  if (name == "serve_hot") return makeServeHot(seed);
  throw std::runtime_error("unknown workload '" + name + "'");
}

std::string loopJson(const LoopResult& r) {
  std::string files = "[";
  for (const std::string& f : r.sampleFiles)
    files += (files.size() > 1 ? "," : "") + jsonStr(f);
  return JsonObject()
      .raw("start_ns", std::to_string(r.startNs))
      .raw("end_ns", std::to_string(r.endNs))
      .count("attempted", r.attempted)
      .count("failed", r.failed)
      .raw("sample_files", files + "]")
      .text();
}

/// Median wall time of a launch that does nothing, in µs: the fixed cost
/// every gradient and every serve batch pays in Machine::run.
double launchUs(int ranks, int reps, Tracer& t, const char* name) {
  parad::psim::Machine m;
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    std::int64_t s = nowNs();
    {
      Scope span(t, name, static_cast<std::uint64_t>(i), Tracer::kNone);
      m.run({ranks, 1}, [](parad::psim::RankEnv&) {});
    }
    us.push_back(static_cast<double>(nowNs() - s) / 1e3);
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

/// Peak resident set of this process image. VmHWM, not getrusage: Linux
/// carries ru_maxrss across execve, so it would report the launching
/// Python interpreter whenever that was larger.
double peakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string envJson() {
  JsonObject env;
  env.count("nproc", std::thread::hardware_concurrency());
#if defined(__clang__)
  env.str("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  env.str("compiler", std::string("gcc ") + __VERSION__);
#else
  env.str("compiler", "unknown");
#endif
#ifdef NDEBUG
  env.boolean("NDEBUG", true);
#else
  env.boolean("NDEBUG", false);
#endif
#ifdef __OPTIMIZE__
  env.boolean("__OPTIMIZE__", true);
#else
  env.boolean("__OPTIMIZE__", false);
#endif
  return env.text();
}

/// A fixed span tree with known stamps, written through the same path as a
/// real trace, so the trace reader and self-time math can be tested.
int traceSelftest(const std::string& path) {
  Tracer t;
  t.enable(true);
  int a = t.record("root", 7, Tracer::kNone, 1000, 11000);
  t.record("child", 7, a, 2000, 5000, 1);
  int c = t.record("child", 7, a, 4000, 8000, 2);
  t.record("grandchild", 7, c, 4500, 5500, 2);
  t.record("other", 8, Tracer::kNone, 12000, 12001);
  return t.writeChromeJson(path, "{\"selftest\":true}") ? 0 : 1;
}

int run(const Args& a) {
  if (a.mode == "trace-selftest") return traceSelftest(a.workdir + "/trace.json");

  // Artifacts go to a directory private to this run, so the codegen
  // set-up always measures a cold compile and never reads another run's
  // (or the user's) cache.
  auto& cg = parad::interp::CodegenCache::global();
  parad::interp::CodegenConfig cc = cg.config();
  cc.cacheDir = a.workdir + "/codegen";
  cg.setConfig(cc);

  std::unique_ptr<Workload> w = make(a.workload, a.seed);
  Tracer t;
  t.enable(a.trace);
  std::int64_t s0 = nowNs();
  w->setup(t);
  double setupS = static_cast<double>(nowNs() - s0) / 1e9;

  JsonObject res;
  res.str("workload", a.workload).count("seed", a.seed).num("setup_s", setupS);
  if (a.mode == "run") {
    w->probeAfterSetup(t);
    t.enable(false);
    std::string checks = "[";
    for (const Check& c : w->check(a.corrupt)) {
      if (checks.size() > 1) checks += ",";
      checks += JsonObject().str("name", c.name).boolean("ok", c.ok)
                    .str("detail", c.detail).text();
    }
    res.raw("checks", checks + "]");
    if (a.trace) {
      res.raw("untraced_loop",
              loopJson(w->loop(a.seconds / 2, t, a.workdir + "/samples_untraced_")));
      t.enable(true);
      res.raw("loop", loopJson(w->loop(a.seconds / 2, t, a.workdir + "/samples_")));
      JsonObject counters;
      w->counters(counters);
      counters.num("psim.run_1x1_us", launchUs(1, 200, t, "psim.run_1x1"))
          .num("psim.run_64x1_us", launchUs(64, 30, t, "psim.run_64x1"));
      res.raw("counters", counters.text());
    } else {
      res.raw("loop", loopJson(w->loop(a.seconds, t, a.workdir + "/samples_")));
    }
  } else if (a.mode != "setup") {
    throw std::runtime_error("unknown mode '" + a.mode + "'");
  }
  res.num("peak_rss_mb", peakRssMb());
  res.raw("env", envJson());
  std::string meta = JsonObject().str("workload", a.workload)
                         .count("seed", a.seed).raw("env", envJson()).text();
  if (a.trace && a.mode == "run" &&
      !t.writeChromeJson(a.workdir + "/trace.json", meta))
    throw std::runtime_error("cannot write " + a.workdir + "/trace.json");

  std::ofstream f(a.workdir + "/result.json");
  f << res.text() << "\n";
  return f ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
