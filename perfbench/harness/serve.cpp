// serve_hot: a GradientService with two workers and two pre-registered hot
// tenants, driven by two client threads that each keep a fixed window of
// outstanding requests (a closed loop). Per-request compute is tiny, so the
// queue, batching, scatter and the per-batch Machine::run launch dominate.
// Every response is checked against the tenant's closed-form derivative.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "src/ir/builder.h"
#include "src/serve/serve.h"
#include "src/support/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using parad::i64;
using parad::Rng;
namespace ir = parad::ir;
namespace serve = parad::serve;

constexpr i64 kN = 24;         // inputs per request
constexpr int kWorkers = 2;
constexpr int kClients = 2;    // kWorkers + kClients stays within 4 cores
constexpr int kWindow = 16;    // outstanding requests per client
constexpr int kPool = 256;     // distinct seeded requests, cycled
constexpr int kDirectReps = 200;
// Traced runs record 1 request in 16: all of them would make a trace file of
// hundreds of MB.
constexpr std::uint64_t kTraceEvery = 16;
const char* const kTenants[2] = {"hot_a", "hot_b"};

/// f(x) = sum_i c*sin(x_i) + cos(x_i) + x_i^2/2; the constant c makes the
/// two tenants structurally distinct programs.
std::function<void(ir::Module&)> tenantIr(double c) {
  return [c](ir::Module& mod) {
    ir::FunctionBuilder b(mod, "f", {ir::Type::PtrF64, ir::Type::I64},
                          ir::Type::F64);
    auto x = b.param(0);
    auto acc = b.alloc(b.constI(1), ir::Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), b.param(1), [&](ir::Value i) {
      auto v = b.load(x, i);
      auto t = b.fadd(b.fadd(b.fmul(b.sin_(v), b.constF(c)), b.cos_(v)),
                      b.fmul(b.fmul(v, v), b.constF(0.5)));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), t));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  };
}

/// One seeded request with its closed-form answer.
struct Job {
  int tenant = 0;
  std::vector<double> x;
  double seed = 1;
  std::vector<double> grad;  // seed * (c cos x - sin x + x)
  double primal = 0;
};

bool near(double got, double want) {
  return std::abs(got - want) <= 1e-12 * (1.0 + std::abs(want));
}

class ServeHot : public Workload {
 public:
  explicit ServeHot(std::uint64_t seed) {
    Rng rng(subSeed(seed, 400));
    c_[0] = 1.0 + rng.uniform(0, 1);
    c_[1] = -1.0 - rng.uniform(0, 1);
    for (int j = 0; j < kPool; ++j) {
      Job job;
      job.tenant = static_cast<int>(rng.below(2));
      job.seed = rng.uniform(0.5, 2.0);
      for (i64 k = 0; k < kN; ++k) job.x.push_back(rng.uniform(-2, 2));
      pool_.push_back(std::move(job));
    }
    expect(false);
  }

  void setup(Tracer& t) override {
    int root = t.begin("setup", 0, Tracer::kNone);
    serve::ServeConfig cfg;  // not fromEnv: the benchmark fixes every knob
    cfg.workers = kWorkers;
    cfg.engine = "exec";
    {
      Scope s(t, "serve.construct", 0, root);
      svc_ = std::make_unique<serve::GradientService>(cfg);
    }
    for (int k = 0; k < 2; ++k) {
      Scope s(t, "serve.register", 0, root);
      svc_->registerProgram(kTenants[k], tenantIr(c_[k]), "f", kN);
    }
    // Gradient generation and lowering happen on a tenant's first request;
    // set-up ends when both tenants have answered one.
    for (int k = 0; k < 2; ++k) {
      Scope s(t, "serve.first_call", 0, root);
      serve::Response r = svc_->call(request(firstOf(k), 0));
      if (!r.ok) throw std::runtime_error("serve set-up failed: " + r.error);
    }
    t.end(root);
  }

  std::vector<Check> check(bool corrupt) override {
    expect(corrupt);
    std::vector<Check> out;
    int bad = 0;
    for (int j = 0; j < 32; ++j)
      if (!matches(j, svc_->call(request(j, 0)))) ++bad;
    out.push_back(Check{"responses_vs_closed_form", bad == 0,
                        std::to_string(bad) + " of 32 batched responses "
                                              "differ from the closed form"});
    serve::Response a = svc_->callDirect(request(0, 0));
    serve::Response b = svc_->callDirect(request(0, 0));
    bool same = a.ok && b.ok && matches(0, a) &&
                std::memcmp(a.gradient.data(), b.gradient.data(),
                            a.gradient.size() * sizeof(double)) == 0 &&
                std::memcmp(&a.virtualNs, &b.virtualNs, sizeof(double)) == 0 &&
                a.stats.instsExecuted == b.stats.instsExecuted;
    out.push_back(Check{"direct_repeat_identical", same,
                        "callDirect twice: same gradient bits, virtual ns and "
                        "instruction count, matching the closed form"});
    direct_ = a;
    referenceOk_ = bad == 0 && same;
    return out;
  }

  LoopResult loop(double seconds, Tracer& t,
                  const std::string& samplePrefix) override {
    std::vector<std::unique_ptr<SampleLog>> logs;
    for (int c = 0; c < kClients; ++c)
      logs.push_back(std::make_unique<SampleLog>(samplePrefix +
                                                 std::to_string(c) + ".bin"));
    before_ = svc_->stats();
    LoopResult r;
    r.startNs = nowNs();
    std::int64_t stop = r.startNs + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<LoopResult> parts(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
      clients.emplace_back([&, c] {
        client(c, stop, t, *logs[static_cast<std::size_t>(c)],
               parts[static_cast<std::size_t>(c)]);
      });
    for (auto& th : clients) th.join();
    r.endNs = nowNs();
    for (const LoopResult& p : parts) {
      r.attempted += p.attempted;
      r.failed += p.failed;
    }
    for (auto& log : logs) {
      if (!log->finish()) throw std::runtime_error("cannot write " + log->path());
      r.sampleFiles.push_back(log->path());
    }
    after_ = svc_->stats();
    return r;
  }

  void counters(JsonObject& out) override {
    std::vector<double> ms;
    for (int k = 0; k < kDirectReps; ++k) {
      std::int64_t s = nowNs();
      svc_->callDirect(request(k % kPool, 0));
      ms.push_back(static_cast<double>(nowNs() - s) / 1e6);
    }
    std::nth_element(ms.begin(), ms.begin() + kDirectReps / 2, ms.end());
    auto d = [&](std::uint64_t serve::ServiceStats::*f) {
      return after_.*f - before_.*f;
    };
    std::uint64_t batches = d(&serve::ServiceStats::batches);
    std::uint64_t done = std::max<std::uint64_t>(d(&serve::ServiceStats::completed), 1);
    const parad::psim::RunStats& s = direct_.stats;
    out.num("serve.direct_p50_ms", ms[kDirectReps / 2])
        .count("serve.batches", batches)
        .num("serve.batch_size_mean",
             static_cast<double>(d(&serve::ServiceStats::batchedRequests)) /
                 static_cast<double>(std::max<std::uint64_t>(batches, 1)))
        .count("serve.isolated_runs", d(&serve::ServiceStats::isolatedRuns))
        .count("serve.batch_fallbacks", d(&serve::ServiceStats::batchFallbacks))
        .count("serve.shed", d(&serve::ServiceStats::shedOverload) +
                                 d(&serve::ServiceStats::shedRate) +
                                 d(&serve::ServiceStats::shedInflight))
        .num("interp.program_cache_hits",
             static_cast<double>(d(&serve::ServiceStats::programCacheHits)) /
                 static_cast<double>(done))
        .count("interp.program_cache_misses", after_.programCacheMisses)
        .count("codegen.compiles", after_.codegenCompiles)
        .count("codegen.fallbacks", after_.codegenFallbacks)
        // One direct (unbatched) request: deterministic, unlike a batch
        // whose size depends on timing.
        .count("interp.insts", s.instsExecuted)
        .num("psim.virtual_ns", direct_.virtualNs)
        .count("psim.atomic_ops", s.atomicOps)
        .count("psim.peak_live_bytes", s.peakLiveBytes)
        .count("core.cache_bytes", s.cacheBytes);
  }

 private:
  int firstOf(int tenant) const {
    for (int j = 0; j < kPool; ++j)
      if (pool_[static_cast<std::size_t>(j)].tenant == tenant) return j;
    return 0;
  }

  serve::Request request(int j, std::uint64_t id) const {
    const Job& job = pool_[static_cast<std::size_t>(j)];
    serve::Request req;
    req.program = kTenants[job.tenant];
    req.inputs = job.x;
    req.seed = job.seed;
    req.id = id;
    return req;
  }

  /// Closed-form answers for the pool; `corrupt` shifts each by 1e-3.
  void expect(bool corrupt) {
    double shift = corrupt ? 1e-3 : 0.0;
    for (Job& job : pool_) {
      double c = c_[job.tenant];
      job.grad.clear();
      job.primal = 0;
      for (double x : job.x) {
        job.grad.push_back(job.seed * (c * std::cos(x) - std::sin(x) + x) +
                           shift);
        job.primal += c * std::sin(x) + std::cos(x) + 0.5 * x * x;
      }
      job.primal += shift;
    }
  }

  bool matches(int j, const serve::Response& r) const {
    const Job& job = pool_[static_cast<std::size_t>(j)];
    if (!r.ok || r.gradient.size() != job.grad.size() ||
        !near(r.primal, job.primal))
      return false;
    for (std::size_t k = 0; k < job.grad.size(); ++k)
      if (!near(r.gradient[k], job.grad[k])) return false;
    return true;
  }

  struct Pending {
    int job = 0;
    std::uint64_t id = 0;
    std::int64_t sentNs = 0, submittedNs = 0;
    std::future<serve::Response> fut;
  };

  void client(int c, std::int64_t stop, Tracer& t, SampleLog& lat,
              LoopResult& r) {
    std::deque<Pending> window;
    int next = c * (kPool / kClients);
    auto submit = [&] {
      Pending p;
      p.job = next++ % kPool;
      p.id = nextId_.fetch_add(1);
      serve::Request req = request(p.job, p.id);
      p.sentNs = nowNs();
      p.fut = svc_->submit(std::move(req));
      p.submittedNs = nowNs();
      window.push_back(std::move(p));
    };
    auto complete = [&] {
      Pending p = std::move(window.front());
      window.pop_front();
      bool ok = false;
      std::int64_t done = nowNs();
      try {
        serve::Response resp = p.fut.get();
        if (resp.doneAtNs != 0) done = static_cast<std::int64_t>(resp.doneAtNs);
        ok = referenceOk_ && matches(p.job, resp);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "request %llu failed: %s\n",
                     static_cast<unsigned long long>(p.id), e.what());
      }
      if (p.id % kTraceEvery == 0) {
        int span = t.record("serve.request", p.id, Tracer::kNone, p.sentNs,
                            done, c + 1);
        t.record("serve.submit", p.id, span, p.sentNs, p.submittedNs, c + 1);
      }
      lat.add(p.sentNs, done);
      ++r.attempted;
      if (!ok) ++r.failed;
    };
    for (int k = 0; k < kWindow; ++k) submit();
    while (nowNs() < stop) {
      complete();
      submit();
    }
    while (!window.empty()) complete();
  }

  double c_[2] = {1, -1};
  std::vector<Job> pool_;
  std::unique_ptr<serve::GradientService> svc_;
  serve::Response direct_;
  serve::ServiceStats before_, after_;
  bool referenceOk_ = false;
  std::atomic<std::uint64_t> nextId_{1};
};

}  // namespace

std::unique_ptr<Workload> makeServeHot(std::uint64_t seed) {
  return std::make_unique<ServeHot>(seed);
}

}  // namespace perfbench
