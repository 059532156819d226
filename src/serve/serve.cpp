#include "src/serve/serve.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <limits>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/core/batch.h"
#include "src/core/gradient.h"
#include "src/interp/backend.h"
#include "src/interp/codegen.h"
#include "src/interp/interp.h"
#include "src/interp/lower.h"
#include "src/psim/faults.h"
#include "src/psim/sim.h"
#include "src/serve/queue.h"
#include "src/support/env.h"

namespace parad::serve {

namespace {

// Every knob fromEnv() accepts, sorted (PARAD_SERVE_SMOKE belongs to the
// bench harness but shares the prefix, so it is accepted here too).
const char* const kServeKnobs[] = {
    "PARAD_SERVE_BATCH",
    "PARAD_SERVE_BREAKER",
    "PARAD_SERVE_BREAKER_COOLDOWN_MS",
    "PARAD_SERVE_CACHE_BYTES",
    "PARAD_SERVE_CKPT_DIR",
    "PARAD_SERVE_DEADLINE_MS",
    "PARAD_SERVE_ENGINE",
    "PARAD_SERVE_INFLIGHT",
    "PARAD_SERVE_MAX_DELAY_US",
    "PARAD_SERVE_QUEUE",
    "PARAD_SERVE_RATE",
    "PARAD_SERVE_RETRY",
    "PARAD_SERVE_RETRY_BACKOFF_US",
    "PARAD_SERVE_SMOKE",
    "PARAD_SERVE_THREADS",
};

/// Scans the environment for PARAD_SERVE_-prefixed names that no knob owns,
/// so a typo (PARAD_SERVE_DEDLINE_MS) fails loudly instead of silently
/// running with defaults. Values are validated per knob by env::real/count.
void validateServeEnv() {
  for (char** e = ::environ; e != nullptr && *e != nullptr; ++e) {
    std::string_view ev(*e);
    if (ev.rfind("PARAD_SERVE_", 0) != 0) continue;
    std::string name(ev.substr(0, ev.find('=')));
    bool known = false;
    for (const char* k : kServeKnobs) known = known || name == k;
    if (known) continue;
    std::string nearest = env::nearestName(name, kServeKnobs);
    std::string hint =
        nearest.empty() ? "" : " (did you mean '" + nearest + "'?)";
    std::string all;
    for (const char* k : kServeKnobs) all += std::string(all.empty() ? "" : ", ") + k;
    fail("serve: unknown environment knob '", name, "'", hint,
         " (knobs: ", all, ")");
  }
}

/// The end of the host clock: a stamp that never comes.
constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// The host stamp `ns` nanoseconds after `t`, saturating at kNever: a huge
/// or infinite duration means "never", not a wrapped-around "now".
/// Non-positive and NaN durations add nothing.
std::uint64_t addNs(std::uint64_t t, double ns) {
  if (!(ns > 0)) return t;
  if (ns >= 0x1p64) return kNever;
  auto d = static_cast<std::uint64_t>(ns);
  return d > kNever - t ? kNever : t + d;
}

/// The timed wait from `now` until stamp `t` (zero once it has passed),
/// capped so that a saturated stamp cannot overflow a timed wait's clock
/// arithmetic; a capped waiter simply wakes and waits again.
std::chrono::nanoseconds waitUntil(std::uint64_t t, std::uint64_t now) {
  constexpr std::uint64_t kMaxWaitNs = 1'000'000'000'000;  // ~17 minutes
  return std::chrono::nanoseconds(t > now ? std::min(t - now, kMaxWaitNs) : 0);
}

}  // namespace

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ServeConfig ServeConfig::fromEnv() {
  validateServeEnv();
  auto real = [](const char* name, double dflt) {
    return env::real("serve", name).value_or(dflt);
  };
  auto count = [](const char* name, int dflt) {
    return static_cast<int>(env::count("serve", name, INT_MAX)
                                .value_or(static_cast<std::uint64_t>(dflt)));
  };
  ServeConfig cfg;
  cfg.workers = std::max(1, count("PARAD_SERVE_THREADS", cfg.workers));
  cfg.maxBatch = std::max(1, count("PARAD_SERVE_BATCH", cfg.maxBatch));
  cfg.maxDelayUs = real("PARAD_SERVE_MAX_DELAY_US", cfg.maxDelayUs);
  cfg.queueCapacity = static_cast<std::size_t>(std::max(
      1, count("PARAD_SERVE_QUEUE", static_cast<int>(cfg.queueCapacity))));
  if (std::string e = env::text("PARAD_SERVE_ENGINE"); !e.empty())
    cfg.engine = e;
  cfg.deadlineMs = real("PARAD_SERVE_DEADLINE_MS", cfg.deadlineMs);
  cfg.retryMax = count("PARAD_SERVE_RETRY", cfg.retryMax);
  cfg.retryBackoffUs = real("PARAD_SERVE_RETRY_BACKOFF_US", cfg.retryBackoffUs);
  cfg.ratePerSec = real("PARAD_SERVE_RATE", cfg.ratePerSec);
  cfg.maxInflight = count("PARAD_SERVE_INFLIGHT", cfg.maxInflight);
  cfg.breakerThreshold = count("PARAD_SERVE_BREAKER", cfg.breakerThreshold);
  cfg.breakerCooldownMs =
      real("PARAD_SERVE_BREAKER_COOLDOWN_MS", cfg.breakerCooldownMs);
  cfg.registryCapacityBytes = env::count("serve", "PARAD_SERVE_CACHE_BYTES")
                                  .value_or(cfg.registryCapacityBytes);
  if (std::string e = env::text("PARAD_SERVE_CKPT_DIR"); !e.empty())
    cfg.ckptDir = e;
  return cfg;
}

// ---------------------------------------------------------------------------
// Implementation.

struct GradientService::Impl {
  /// One tenant program (possibly shared by several registered names when
  /// their primal IR fingerprints coincide). The module's heap address is
  /// stable for the service's lifetime — the sharded ProgramCache keys
  /// lowered closures by it.
  struct Program {
    std::string primal;
    i64 n = 0;
    ir::Module mod;
    std::mutex prepMu;           // serializes cold compile AND eviction
    std::atomic<bool> prepared{false};
    core::GradInfo gi;
    core::BatchInfo bi;
    // Functions generateGradient/generateBatchedGradient added to `mod`
    // beyond the tenant's own (written under prepMu); eviction erases
    // exactly these so the tenant's primal IR survives to recompile against.
    std::vector<std::string> generated;
    std::size_t preparedBytes = 0;  // IR bytes accounted while prepared
    // Registry-LRU state: jobs referencing this program right now (never
    // evict a live program) and the last admission stamp (evict oldest).
    std::atomic<int> inflight{0};
    std::atomic<std::uint64_t> lastUsedNs{0};
    // Circuit breaker (DESIGN.md §15): consecutive execution failures;
    // openedAtNs != 0 means open since that stamp; probeInflight gates the
    // single half-open probe job.
    std::atomic<int> consecFailures{0};
    std::atomic<std::uint64_t> openedAtNs{0};
    std::atomic<bool> probeInflight{false};
  };

  /// One tenant's admission state (DESIGN.md §15.3): its token bucket and
  /// its admitted-but-unanswered jobs.
  struct Tenant {
    double tokens = 0;
    std::uint64_t lastNs = 0;
    int inflight = 0;
  };

  struct Job {
    Request req;
    std::promise<Response> promise;
    std::uint64_t deadlineNs = 0;  // absolute host deadline; 0 = none
    bool probe = false;            // a half-open circuit-breaker probe
    bool holdsSlot = false;        // counted in its tenant's inflight jobs
  };

  /// A batch: same program, same engine — one VM run for the clean subset,
  /// per-job VMs for fault-carrying members.
  struct BatchWork {
    Program* prog = nullptr;
    std::string engine;  // canonical backend name
    std::vector<Job> jobs;
    std::uint64_t flushAtNs = 0;  // when the batcher hands it to a worker
  };

  explicit Impl(GradientService& svc)
      : svc_(svc),
        requests_(svc.cfg_.queueCapacity),
        batches_(svc.cfg_.queueCapacity) {}

  GradientService& svc_;
  BoundedQueue<Job> requests_;
  BoundedQueue<BatchWork> batches_;
  std::thread batcher_;
  std::vector<std::thread> workers_;

  std::mutex progMu_;
  std::vector<std::unique_ptr<Program>> programs_;
  std::unordered_map<std::string, Program*> byName_;
  std::map<std::pair<std::uint64_t, i64>, Program*> byFp_;

  // Aggregate counters (ServiceStats).
  std::atomic<std::uint64_t> submitted_{0}, completed_{0}, failed_{0};
  std::atomic<std::uint64_t> nBatches_{0}, batchedRequests_{0},
      maxBatchObserved_{0}, isolatedRuns_{0}, batchFallbacks_{0},
      coldCompiles_{0};
  std::atomic<std::uint64_t> shedOverload_{0}, shedRate_{0}, shedInflight_{0},
      deadlineExpired_{0}, retries_{0}, warmResumes_{0}, breakerOpens_{0},
      breakerShortCircuits_{0}, breakerProbes_{0}, programEvictions_{0};
  std::atomic<std::size_t> registryBytes_{0};
  std::atomic<std::uint64_t> nextId_{0};
  std::mutex drainMu_;
  std::condition_variable drainCv_;

  // ---- per-tenant admission ----

  std::mutex tenantMu_;
  std::unordered_map<std::string, Tenant> tenants_;

  /// Submit-time admission: the tenant's token bucket (one token per
  /// request, refilled at ratePerSec up to max(1, ratePerSec) tokens) and
  /// its inflight cap. Both shed at once, so a throttled tenant cannot stall
  /// anyone's producers, and a shed request spends neither a token nor a
  /// slot. Returns the rejection, or nullopt once the job is charged. With
  /// both limits off there is no tenant state and no lock to take.
  std::optional<Response> admitTenant(Job& job) {
    const ServeConfig& cfg = svc_.cfg_;
    if (cfg.ratePerSec <= 0 && cfg.maxInflight <= 0) return std::nullopt;
    std::string tenant = tenantOf(job.req);
    std::unique_lock<std::mutex> lock(tenantMu_);
    std::uint64_t now = nowNs();  // under the lock: refills see ordered stamps
    double burst = std::max(1.0, cfg.ratePerSec);
    Tenant& t =
        tenants_.try_emplace(tenant, Tenant{burst, now, 0}).first->second;
    double refill = cfg.ratePerSec * 1e-9 * static_cast<double>(now - t.lastNs);
    t.tokens = std::min(burst, t.tokens + refill);
    t.lastNs = now;
    bool dry = cfg.ratePerSec > 0 && t.tokens < 1.0;
    bool full = cfg.maxInflight > 0 && t.inflight >= cfg.maxInflight;
    if (!dry && !full) {
      if (cfg.ratePerSec > 0) t.tokens -= 1.0;
      if (cfg.maxInflight > 0) ++t.inflight;
      job.holdsSlot = cfg.maxInflight > 0;
      return std::nullopt;
    }
    lock.unlock();
    (dry ? shedRate_ : shedInflight_).fetch_add(1, std::memory_order_relaxed);
    return rejection(
        psim::FailureReport::Kind::Overload,
        "tenant '" + tenant +
            (dry ? "' exceeded its rate limit (" +
                       std::to_string(cfg.ratePerSec) + " req/s)"
                 : "' has " + std::to_string(cfg.maxInflight) +
                       " requests in flight (inflight cap)"),
        job.req);
  }

  // ---- deadline monitor ----
  //
  // One thread owning a multimap of (absolute deadline -> weak cancel flag).
  // Workers arm a flag per deadline-carrying run; when the host clock passes
  // a deadline the monitor sets the flag, which the engines check at their
  // range-exit probes, aborting the run with a structured Deadline report.
  // Weak pointers keep a run that finished early from pinning its flag here.
  std::mutex dlMu_;
  std::condition_variable dlCv_;
  std::multimap<std::uint64_t, std::weak_ptr<std::atomic<bool>>> dlArmed_;
  bool dlStop_ = false;
  std::thread dlThread_;

  /// The cancel flag the monitor sets at `deadlineNs`, or null for a run
  /// with no deadline (0) or one past the end of the clock.
  std::shared_ptr<std::atomic<bool>> armDeadline(std::uint64_t deadlineNs) {
    if (deadlineNs == 0 || deadlineNs == kNever) return nullptr;
    auto flag = std::make_shared<std::atomic<bool>>(false);
    {
      std::lock_guard<std::mutex> lock(dlMu_);
      dlArmed_.emplace(deadlineNs, flag);
    }
    dlCv_.notify_one();
    return flag;
  }

  void deadlineLoop() {
    std::unique_lock<std::mutex> lock(dlMu_);
    while (!dlStop_) {
      if (dlArmed_.empty()) {
        dlCv_.wait(lock);
        continue;
      }
      dlCv_.wait_for(lock, waitUntil(dlArmed_.begin()->first, nowNs()));
      std::uint64_t now = nowNs();
      while (!dlArmed_.empty() && dlArmed_.begin()->first <= now) {
        if (auto flag = dlArmed_.begin()->second.lock())
          flag->store(true, std::memory_order_release);
        dlArmed_.erase(dlArmed_.begin());
      }
    }
  }

  // ---- admission helpers ----

  Program* findProgram(const std::string& name) {
    std::lock_guard<std::mutex> lock(progMu_);
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : it->second;
  }

  std::string resolveEngine(const std::string& spec) const {
    std::string s = spec.empty() ? svc_.cfg_.engine : spec;
    if (s.empty()) s = interp::defaultEngine();
    // Throws the registry's structured unknown-backend error (sorted backend
    // list + did-you-mean) for bad specs; the admission stage turns it into
    // the request's failure message.
    return std::string(interp::BackendRegistry::global().resolve(s).name());
  }

  /// Deterministic footprint estimate of one IR function (instructions,
  /// regions, operand lists): the unit of account for the registry byte cap.
  static std::size_t regionBytes(const ir::Region& rg) {
    std::size_t total = sizeof(ir::Region) + rg.args.size() * sizeof(int);
    for (const ir::Inst& in : rg.insts) {
      total += sizeof(ir::Inst) + in.operands.size() * sizeof(int) +
               in.sym.size();
      for (const ir::Region& sub : in.regions) total += regionBytes(sub);
    }
    return total;
  }
  static std::size_t irFunctionBytes(const ir::Function& fn) {
    return sizeof(ir::Function) + fn.name.size() +
           fn.paramTypes.size() * sizeof(ir::Type) +
           fn.valueTypes.size() * sizeof(ir::Type) + regionBytes(fn.body);
  }

  /// One-time gradient generation + batch-wrapper emission for a tenant
  /// program (the cold path, re-entered transparently after an eviction).
  /// Returns true when this call did the work.
  bool ensurePrepared(Program& p) {
    if (p.prepared.load(std::memory_order_acquire)) return false;
    std::lock_guard<std::mutex> lock(p.prepMu);
    if (p.prepared.load(std::memory_order_relaxed)) return false;
    std::vector<std::string> before;
    for (const auto& kv : p.mod.functions) before.push_back(kv.first);
    core::GradConfig gc;
    gc.activeArg = {true, false};
    p.gi = core::generateGradient(p.mod, p.primal, gc);
    p.bi = core::generateBatchedGradient(p.mod, p.gi);
    p.generated.clear();
    std::size_t bytes = 0;
    for (const auto& kv : p.mod.functions) {
      if (std::find(before.begin(), before.end(), kv.first) != before.end())
        continue;
      p.generated.push_back(kv.first);
      bytes += irFunctionBytes(kv.second);
    }
    p.preparedBytes = bytes;
    registryBytes_.fetch_add(bytes, std::memory_order_relaxed);
    p.prepared.store(true, std::memory_order_release);
    coldCompiles_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Registry LRU eviction: while the prepared-program bytes exceed the cap,
  /// unprepare the least-recently-used idle program — erase its generated
  /// gradient/batch functions (the tenant's own IR survives), drop its
  /// lowered closures from the process-wide ProgramCache, and let the next
  /// job recompile it transparently. Lock order: progMu_ alone to pick a
  /// victim, then the victim's prepMu alone to evict (inflight jobs are
  /// re-checked under prepMu, so a program is never mutated while a VM run
  /// references its IR — a worker bumps inflight before ensurePrepared).
  void sweepRegistry() {
    std::size_t cap = svc_.cfg_.registryCapacityBytes;
    if (cap == 0) return;
    while (registryBytes_.load(std::memory_order_relaxed) > cap) {
      Program* victim = nullptr;
      std::uint64_t oldest = 0;
      {
        std::lock_guard<std::mutex> lock(progMu_);
        for (const auto& up : programs_) {
          Program& p = *up;
          if (!p.prepared.load(std::memory_order_acquire)) continue;
          if (p.inflight.load(std::memory_order_acquire) > 0) continue;
          std::uint64_t used = p.lastUsedNs.load(std::memory_order_relaxed);
          if (victim == nullptr || used < oldest) {
            victim = &p;
            oldest = used;
          }
        }
      }
      if (victim == nullptr) return;  // everything left is live; back off
      std::lock_guard<std::mutex> lock(victim->prepMu);
      if (!victim->prepared.load(std::memory_order_relaxed)) continue;
      if (victim->inflight.load(std::memory_order_acquire) > 0) continue;
      victim->prepared.store(false, std::memory_order_release);
      for (const std::string& fn : victim->generated)
        victim->mod.functions.erase(fn);
      victim->generated.clear();
      interp::ProgramCache::global().invalidateModule(&victim->mod);
      registryBytes_.fetch_sub(victim->preparedBytes,
                               std::memory_order_relaxed);
      victim->preparedBytes = 0;
      programEvictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // ---- circuit breaker ----

  /// Failures that count toward quarantine: the job executed (or attempted
  /// preparation) and died on a program-attributable fault — traps,
  /// kill-budget exhaustion, deadlocks. Host-side outcomes
  /// (deadline, overload, an already-open circuit) never poison the program.
  static bool countsForBreaker(const Response& r) {
    if (r.ok) return false;
    if (r.failure == nullptr) return true;  // trap / preparation failure
    using K = psim::FailureReport::Kind;
    K k = r.failure->kind;
    return k != K::Deadline && k != K::Overload && k != K::CircuitOpen;
  }

  void recordOutcome(Program& p, const Response& r, bool probe) {
    if (svc_.cfg_.breakerThreshold <= 0) return;
    bool failed = countsForBreaker(r);
    if (probe) {
      // Half-open verdict: a clean probe closes the circuit, a failed one
      // re-opens it for another cooldown. A probe that died on a service-
      // level outcome (deadline, shed) says nothing about program health —
      // release the probe slot and leave the circuit as it was, so the next
      // admission probes again.
      if (r.ok || failed) {  // else inconclusive
        p.openedAtNs.store(failed ? nowNs() : 0, std::memory_order_relaxed);
        if (r.ok) p.consecFailures.store(0, std::memory_order_relaxed);
      }
      p.probeInflight.store(false, std::memory_order_release);
      return;
    }
    if (!failed) {
      p.consecFailures.store(0, std::memory_order_relaxed);
      return;
    }
    int c = p.consecFailures.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t expected = 0;
    if (c >= svc_.cfg_.breakerThreshold &&
        p.openedAtNs.compare_exchange_strong(expected, nowNs(),
                                             std::memory_order_relaxed))
      breakerOpens_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- answers ----

  static std::string tenantOf(const Request& req) {
    return req.tenant.empty() ? req.program : req.tenant;
  }

  /// A failed response carrying `rep`, attributed to `req`.
  static Response withReport(psim::FailureReport rep, const Request& req) {
    rep.requestId = req.id;
    rep.tenant = tenantOf(req);
    Response r;
    r.error = rep.render();
    r.failure = std::make_shared<const psim::FailureReport>(std::move(rep));
    return r;
  }

  /// A service-level rejection (overload, deadline, open circuit): no
  /// virtual machine was involved.
  static Response rejection(psim::FailureReport::Kind kind,
                            std::string detail, const Request& req) {
    psim::FailureReport rep;
    rep.kind = kind;
    rep.detail = std::move(detail);
    return withReport(std::move(rep), req);
  }

  /// A failure without a structured report (unknown program, bad arity or
  /// engine, preparation and host errors).
  static Response withError(std::string error) {
    Response r;
    r.error = std::move(error);
    return r;
  }

  static void stamp(Response& r, const Request& req) {
    r.doneAtNs = nowNs();
    r.requestId = req.id;
    r.tenant = tenantOf(req);
  }

  /// The one way a job is answered — submit-time rejections, admission
  /// failures, queued-deadline expiry and executed results alike: stamp the
  /// response, count it, free the tenant slot, resolve the promise and wake
  /// drain(). The counters and the slot come first: a client that has
  /// harvested every future must observe completed == submitted, and one
  /// that re-submits right after get() must find its slot already free.
  void answer(Job& job, Response&& r) {
    stamp(r, job.req);
    if (r.retries > 0)
      retries_.fetch_add(static_cast<std::uint64_t>(r.retries),
                         std::memory_order_relaxed);
    if (r.failure != nullptr &&
        r.failure->kind == psim::FailureReport::Kind::Deadline)
      deadlineExpired_.fetch_add(1, std::memory_order_relaxed);
    if (!r.ok) failed_.fetch_add(1, std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
    if (job.holdsSlot) {
      std::lock_guard<std::mutex> lock(tenantMu_);
      auto it = tenants_.find(r.tenant);
      // Without a rate limit the record holds nothing once idle.
      if (--it->second.inflight == 0 && svc_.cfg_.ratePerSec <= 0)
        tenants_.erase(it);
    }
    job.promise.set_value(std::move(r));
    std::lock_guard<std::mutex> lock(drainMu_);
    drainCv_.notify_all();
  }

  // ---- execution ----

  /// One VM run for `reqs` on a fresh Machine under `mc` (one rank, one
  /// thread), with the host-cancel flag armed when the run has a deadline.
  /// A lone isolated request goes through the plain gradient function; a
  /// batch goes through the batched wrapper, its inputs packed behind a
  /// leading batch dimension. Returns one result per request; VM failures
  /// propagate.
  std::vector<Response> runOnVm(Program& p,
                                const std::vector<const Request*>& reqs,
                                bool batched, const std::string& engine,
                                psim::MachineConfig mc,
                                std::uint64_t deadlineNs) {
    std::shared_ptr<std::atomic<bool>> cancel = armDeadline(deadlineNs);
    mc.cancel = cancel.get();
    psim::Machine m(mc);
    psim::MemoryManager& mem = m.mem();
    const i64 B = static_cast<i64>(reqs.size());
    psim::RtPtr xs = mem.alloc(ir::Type::F64, B * p.n, 0);
    psim::RtPtr dxs = mem.alloc(ir::Type::F64, B * p.n, 0);
    psim::RtPtr seeds, primals;
    if (batched) {
      seeds = mem.alloc(ir::Type::F64, B, 0);
      primals = mem.alloc(ir::Type::F64, B, 0);
    }
    for (i64 b = 0; b < B; ++b) {
      const Request& req = *reqs[static_cast<std::size_t>(b)];
      if (batched) mem.atF(seeds, b) = req.seed;
      for (i64 k = 0; k < p.n; ++k)
        mem.atF(xs, b * p.n + k) = req.inputs[static_cast<std::size_t>(k)];
    }
    using interp::RtVal;
    const std::vector<RtVal> args =
        batched ? std::vector<RtVal>{RtVal::P(xs), RtVal::I(p.n),
                                     RtVal::P(dxs), RtVal::P(seeds),
                                     RtVal::P(primals), RtVal::I(B)}
                : std::vector<RtVal>{RtVal::P(xs), RtVal::I(p.n),
                                     RtVal::P(dxs), RtVal::F(reqs[0]->seed)};
    const ir::Function& fn = p.mod.get(batched ? p.bi.name : p.gi.name);
    RtVal ret{};
    double makespan = m.run({1, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(p.mod, m, engine);
      ret = it.run(fn, args, env);
    });
    std::vector<Response> out(reqs.size());
    for (i64 b = 0; b < B; ++b) {
      Response& r = out[static_cast<std::size_t>(b)];
      r.ok = true;
      r.engine = engine;
      r.primal = batched ? mem.atF(primals, b) : ret.u.f;
      r.gradient.resize(static_cast<std::size_t>(p.n));
      for (i64 k = 0; k < p.n; ++k)
        r.gradient[static_cast<std::size_t>(k)] = mem.atF(dxs, b * p.n + k);
      r.virtualNs = makespan;
      r.stats = m.stats();
    }
    return out;
  }

  /// One execution attempt of one request on its own Machine through the
  /// plain gradient function, with the request's fault plan (if any) armed
  /// on that VM only. `attempt` offsets the fault seed — the retry policy's
  /// "fresh hardware" model: a re-dispatched job draws a different fault
  /// schedule, exactly as a real retry lands on a different node. A nonzero
  /// `deadlineNs` arms a host-cancel flag so the run aborts with a
  /// structured Deadline report when the host clock passes it mid-run.
  Response executeAttempt(Program& p, const Request& req,
                          const std::string& engine, int attempt,
                          std::uint64_t deadlineNs) {
    Response r;
    if (deadlineNs != 0 && nowNs() >= deadlineNs) {
      r = rejection(psim::FailureReport::Kind::Deadline,
                    "deadline expired before execution of program '" +
                        req.program + "'",
                    req);
    } else {
      try {
        psim::MachineConfig mc;
        if (!req.faultSpec.empty()) {
          mc.faults = psim::parseFaultSpec(req.faultSpec);
          mc.faults.seed += static_cast<std::uint64_t>(attempt);
          // Durable warm retries: give every checkpointing fault-injected
          // job a per-job epoch directory (stable across attempts — the
          // retry Machine re-seats from the epochs the failed attempt
          // published). An explicit ckpt_dir= in the request's fault spec
          // wins.
          if (!svc_.cfg_.ckptDir.empty() && mc.faults.ckptInterval > 0 &&
              mc.faults.ckptDir.empty())
            mc.faults.ckptDir =
                svc_.cfg_.ckptDir + "/job_" + std::to_string(req.id);
        }
        r = std::move(runOnVm(p, {&req}, false, engine, mc, deadlineNs)[0]);
      } catch (const psim::VmError& e) {
        r = withReport(e.report(), req);
      } catch (const Error& e) {
        r = withError(e.what());
      }
    }
    r.isolated = true;
    r.engine = engine;
    isolatedRuns_.fetch_add(1, std::memory_order_relaxed);
    return r;
  }

  /// Isolated execution with the per-job retry policy: up to `retryMax`
  /// re-dispatches after transient failures — the virtual hardware killed
  /// the run (a rank crash past its recovery budget); traps and deadline
  /// expiry are job- or host-attributable and never retried —
  /// sleeping a deterministic exponential backoff (base * 2^attempt)
  /// between attempts, never past the job's deadline. The successful
  /// attempt's gradient is bit-identical to a single-shot run — each
  /// attempt is a fresh Machine; only the fault seed differs.
  Response executeIsolated(Program& p, const Request& req,
                           const std::string& engine,
                           std::uint64_t deadlineNs) {
    int budget = req.retryMax >= 0 ? req.retryMax : svc_.cfg_.retryMax;
    std::uint64_t warm = 0;  // attempts re-seated from a durable epoch
    for (int attempt = 0;; ++attempt) {
      Response r = executeAttempt(p, req, engine, attempt, deadlineNs);
      r.retries = attempt;
      warm += r.stats.durableResumes;
      double backoffNs = std::ldexp(svc_.cfg_.retryBackoffUs * 1e3, attempt);
      std::uint64_t wake = addNs(nowNs(), backoffNs);
      bool transient = r.failure != nullptr &&
                       r.failure->kind == psim::FailureReport::Kind::RankKilled;
      if (r.ok || !transient || attempt >= budget ||
          (backoffNs > 0 && deadlineNs != 0 && wake >= deadlineNs)) {
        r.warmResumes = warm;
        if (warm > 0) warmResumes_.fetch_add(warm, std::memory_order_relaxed);
        return r;
      }
      std::this_thread::sleep_for(waitUntil(wake, nowNs()));
    }
  }

  /// Executes a flushed batch: clean requests as one batched VM run, fault-
  /// carrying requests each on their own VM. A failing batched run degrades
  /// to per-request isolated re-execution so one poisoned input cannot take
  /// its batch-mates down with it; a batch cancelled by its earliest
  /// member's deadline degrades the same way, so only the expired jobs die
  /// (with structured Deadline reports) and their batch-mates still succeed.
  void executeBatch(BatchWork&& bw) {
    Program& p = *bw.prog;
    const int batchSize = static_cast<int>(bw.jobs.size());
    bool cold = false;
    std::string prepError;
    try {
      cold = ensurePrepared(p);
    } catch (const Error& e) {
      prepError =
          std::string("serve: program preparation failed: ") + e.what();
    }
    // Clean jobs first, so a faulted job's isolated run (and its retries)
    // never delays a batch-mate's answer.
    auto isClean = [](const Job& j) { return j.req.faultSpec.empty(); };
    if (!std::is_partitioned(bw.jobs.begin(), bw.jobs.end(), isClean))
      std::stable_partition(bw.jobs.begin(), bw.jobs.end(), isClean);
    // A job whose deadline passed while it sat in the pipeline is answered
    // without a VM run; its batch-mates proceed.
    const std::uint64_t now = nowNs();
    auto expired = [now](const Job& j) {
      return j.deadlineNs != 0 && now >= j.deadlineNs;
    };
    std::vector<const Request*> clean;
    std::uint64_t minDeadline = kNever;  // cancels the whole batched run
    for (const Job& j : bw.jobs) {
      if (!prepError.empty() || !isClean(j) || expired(j)) continue;
      clean.push_back(&j.req);
      if (j.deadlineNs != 0) minDeadline = std::min(minDeadline, j.deadlineNs);
    }
    std::vector<Response> batched;
    if (!clean.empty()) {
      try {
        batched = runOnVm(p, clean, true, bw.engine, {}, minDeadline);
        countBatch(clean.size());
      } catch (const Error&) {
        // The batch VM died (an input-dependent trap, or the deadline
        // monitor cancelled the run): every clean job re-runs isolated
        // below, where the culprit fails alone with its own structured
        // report and everyone else still gets a bit-exact result.
        batchFallbacks_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    std::size_t next = 0;
    for (Job& j : bw.jobs) {
      Response r;
      if (!prepError.empty()) {
        r = withError(prepError);
      } else if (expired(j)) {
        r = rejection(psim::FailureReport::Kind::Deadline,
                      "deadline expired in queue for program '" +
                          j.req.program + "'",
                      j.req);
      } else {
        r = isClean(j) && !batched.empty()
                ? std::move(batched[next++])
                : executeIsolated(p, j.req, bw.engine, j.deadlineNs);
        r.batchSize = batchSize;
        r.coldCompile = cold;
      }
      recordOutcome(p, r, j.probe);
      answer(j, std::move(r));
    }
    p.inflight.fetch_sub(batchSize, std::memory_order_release);
    sweepRegistry();
  }

  void countBatch(std::size_t size) {
    auto b = static_cast<std::uint64_t>(size);
    nBatches_.fetch_add(1, std::memory_order_relaxed);
    batchedRequests_.fetch_add(b, std::memory_order_relaxed);
    std::uint64_t prev = maxBatchObserved_.load(std::memory_order_relaxed);
    while (prev < b && !maxBatchObserved_.compare_exchange_weak(
                           prev, b, std::memory_order_relaxed)) {
    }
  }

  // ---- batcher ----

  /// Batches being formed, by (program, engine).
  using PendingMap = std::map<std::pair<Program*, std::string>, BatchWork>;

  void flush(PendingMap& pending, PendingMap::iterator it) {
    batches_.push(std::move(it->second));
    pending.erase(it);
  }

  void batcherLoop() {
    PendingMap pending;
    for (bool closing = false; !closing;) {
      std::uint64_t next = kNever;
      for (const auto& [k, bw] : pending) next = std::min(next, bw.flushAtNs);
      std::optional<Job> item =
          pending.empty() ? requests_.pop()
                          : requests_.popFor(waitUntil(next, nowNs()));
      if (item.has_value())
        admit(std::move(*item), pending);
      else
        closing = requests_.closed() && requests_.size() == 0;
      // Flush every batch whose oldest member has waited out the max delay,
      // and everything once the queue is closed and drained.
      std::uint64_t t = nowNs();
      for (auto it = pending.begin(); it != pending.end();) {
        auto cur = it++;
        if (closing || t >= cur->second.flushAtNs) flush(pending, cur);
      }
    }
  }

  void admit(Job&& job, PendingMap& pending) {
    Program* prog = findProgram(job.req.program);
    if (prog == nullptr) {
      answer(job, withError("serve: unknown program '" + job.req.program +
                            "'"));
      return;
    }
    if (static_cast<i64>(job.req.inputs.size()) != prog->n) {
      answer(job, withError("serve: program '" + job.req.program +
                            "' expects " + std::to_string(prog->n) +
                            " inputs, got " +
                            std::to_string(job.req.inputs.size())));
      return;
    }
    std::string engine;
    try {
      engine = resolveEngine(job.req.engine);
    } catch (const Error& e) {
      answer(job, withError(e.what()));
      return;
    }
    // Queued-deadline expiry: answered here, at admission, without ever
    // reaching a worker or a VM.
    if (job.deadlineNs != 0 && nowNs() >= job.deadlineNs) {
      answer(job, rejection(psim::FailureReport::Kind::Deadline,
                            "deadline expired in queue for program '" +
                                job.req.program + "'",
                            job.req));
      return;
    }
    // Circuit breaker: an open circuit short-circuits jobs here (no worker
    // consumed). Once the cooldown passes, exactly one job is admitted as
    // the half-open probe; its outcome closes or re-opens the circuit.
    if (svc_.cfg_.breakerThreshold > 0) {
      std::uint64_t opened = prog->openedAtNs.load(std::memory_order_relaxed);
      if (opened != 0) {
        bool expected = false;
        if (nowNs() >= addNs(opened, svc_.cfg_.breakerCooldownMs * 1e6) &&
            prog->probeInflight.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          job.probe = true;
          breakerProbes_.fetch_add(1, std::memory_order_relaxed);
        } else {
          breakerShortCircuits_.fetch_add(1, std::memory_order_relaxed);
          answer(job,
                 rejection(psim::FailureReport::Kind::CircuitOpen,
                           "program '" + job.req.program +
                               "' quarantined after " +
                               std::to_string(prog->consecFailures.load(
                                   std::memory_order_relaxed)) +
                               " consecutive failures (cooldown " +
                               std::to_string(svc_.cfg_.breakerCooldownMs) +
                               " ms)",
                           job.req));
          return;
        }
      }
    }
    prog->inflight.fetch_add(1, std::memory_order_acq_rel);
    prog->lastUsedNs.store(nowNs(), std::memory_order_relaxed);
    auto [it, fresh] = pending.try_emplace({prog, engine});
    BatchWork& bw = it->second;
    if (fresh) {
      bw.prog = prog;
      bw.engine = engine;
      bw.flushAtNs = addNs(nowNs(), svc_.cfg_.maxDelayUs * 1e3);
    }
    bw.jobs.push_back(std::move(job));
    if (static_cast<int>(bw.jobs.size()) >= svc_.cfg_.maxBatch)
      flush(pending, it);
  }

  void workerLoop() {
    while (std::optional<BatchWork> bw = batches_.pop())
      executeBatch(std::move(*bw));
  }
};

// ---------------------------------------------------------------------------
// Public surface.

GradientService::GradientService(ServeConfig cfg)
    : cfg_(cfg), impl_(std::make_unique<Impl>(*this)) {
  PARAD_CHECK(cfg_.workers >= 1, "serve: need at least one worker");
  PARAD_CHECK(cfg_.maxBatch >= 1, "serve: max batch must be >= 1");
  impl_->dlThread_ = std::thread([this] { impl_->deadlineLoop(); });
  impl_->batcher_ = std::thread([this] { impl_->batcherLoop(); });
  for (int i = 0; i < cfg_.workers; ++i)
    impl_->workers_.emplace_back([this] { impl_->workerLoop(); });
}

GradientService::~GradientService() {
  impl_->requests_.close();
  impl_->batcher_.join();
  impl_->batches_.close();
  for (std::thread& w : impl_->workers_) w.join();
  {
    std::lock_guard<std::mutex> lock(impl_->dlMu_);
    impl_->dlStop_ = true;
  }
  impl_->dlCv_.notify_all();
  impl_->dlThread_.join();
}

void GradientService::registerProgram(
    const std::string& name, const std::function<void(ir::Module&)>& build,
    const std::string& primal, i64 n) {
  PARAD_CHECK(n > 0, "serve: program ", name, " needs a positive input size");
  auto prog = std::make_unique<Impl::Program>();
  build(prog->mod);
  PARAD_CHECK(prog->mod.has(primal), "serve: builder for ", name,
              " did not emit primal function ", primal);
  const ir::Function& fn = prog->mod.get(primal);
  PARAD_CHECK(fn.paramTypes.size() == 2 &&
                  fn.paramTypes[0] == ir::Type::PtrF64 &&
                  fn.paramTypes[1] == ir::Type::I64 &&
                  fn.retType == ir::Type::F64,
              "serve: program ", name,
              " must have the canonical servable signature "
              "f(x: ptr<f64>, n: i64) -> f64");
  prog->primal = primal;
  prog->n = n;

  std::lock_guard<std::mutex> lock(impl_->progMu_);
  PARAD_CHECK(impl_->byName_.count(name) == 0, "serve: program ", name,
              " already registered");
  // Same-fingerprint admission: tenants whose primal IR is structurally
  // identical share one prepared program — one gradient generation, one set
  // of cache entries, shared batches.
  std::pair<std::uint64_t, i64> fpKey{interp::fingerprint(fn), n};
  auto shared = impl_->byFp_.find(fpKey);
  if (shared != impl_->byFp_.end()) {
    impl_->byName_.emplace(name, shared->second);
    return;
  }
  Impl::Program* raw = prog.get();
  impl_->programs_.push_back(std::move(prog));
  impl_->byFp_.emplace(fpKey, raw);
  impl_->byName_.emplace(name, raw);
}

std::future<Response> GradientService::submit(Request req) {
  Impl& im = *impl_;
  if (req.id == 0)
    req.id = im.nextId_.fetch_add(1, std::memory_order_relaxed) + 1;
  Impl::Job job;
  double dl = req.deadlineMs != 0 ? req.deadlineMs : cfg_.deadlineMs;
  job.deadlineNs = dl > 0 ? addNs(nowNs(), dl * 1e6) : 0;
  job.req = std::move(req);
  std::future<Response> fut = job.promise.get_future();
  im.submitted_.fetch_add(1, std::memory_order_relaxed);
  if (std::optional<Response> shed = im.admitTenant(job)) {
    im.answer(job, std::move(*shed));
  } else if (!im.requests_.tryPush(std::move(job))) {
    if (im.requests_.closed()) {
      im.answer(job, Impl::withError("serve: service is shutting down"));
    } else {
      im.shedOverload_.fetch_add(1, std::memory_order_relaxed);
      im.answer(job, Impl::rejection(
                         psim::FailureReport::Kind::Overload,
                         "request queue full (capacity " +
                             std::to_string(cfg_.queueCapacity) +
                             "), load shed",
                         job.req));
    }
  }
  return fut;
}

Response GradientService::call(Request req) {
  return submit(std::move(req)).get();
}

Response GradientService::callDirect(const Request& req) {
  Impl::Program* prog = impl_->findProgram(req.program);
  Response r;
  if (prog == nullptr) {
    r = Impl::withError("serve: unknown program '" + req.program + "'");
  } else {
    // The reference path skips admission control (it is the oracle the
    // admission-controlled path is measured against) but shares the retry
    // and per-request deadline machinery, and pins the program against
    // eviction for the duration of the run like any batched job.
    prog->inflight.fetch_add(1, std::memory_order_acq_rel);
    prog->lastUsedNs.store(nowNs(), std::memory_order_relaxed);
    try {
      bool cold = impl_->ensurePrepared(*prog);
      std::string engine = impl_->resolveEngine(req.engine);
      std::uint64_t deadlineNs =
          req.deadlineMs > 0 ? addNs(nowNs(), req.deadlineMs * 1e6) : 0;
      r = impl_->executeIsolated(*prog, req, engine, deadlineNs);
      r.batchSize = 1;
      r.coldCompile = cold;
    } catch (const Error& e) {
      r = Impl::withError(e.what());
    }
    prog->inflight.fetch_sub(1, std::memory_order_release);
    impl_->sweepRegistry();
  }
  Impl::stamp(r, req);
  return r;
}

void GradientService::drain() {
  std::unique_lock<std::mutex> lock(impl_->drainMu_);
  impl_->drainCv_.wait(lock, [&] {
    return impl_->completed_.load(std::memory_order_acquire) >=
           impl_->submitted_.load(std::memory_order_acquire);
  });
}

ServiceStats GradientService::stats() const {
  ServiceStats s;
  s.submitted = impl_->submitted_.load(std::memory_order_relaxed);
  s.completed = impl_->completed_.load(std::memory_order_relaxed);
  s.failed = impl_->failed_.load(std::memory_order_relaxed);
  s.batches = impl_->nBatches_.load(std::memory_order_relaxed);
  s.batchedRequests = impl_->batchedRequests_.load(std::memory_order_relaxed);
  s.maxBatchObserved =
      impl_->maxBatchObserved_.load(std::memory_order_relaxed);
  s.isolatedRuns = impl_->isolatedRuns_.load(std::memory_order_relaxed);
  s.batchFallbacks = impl_->batchFallbacks_.load(std::memory_order_relaxed);
  s.coldCompiles = impl_->coldCompiles_.load(std::memory_order_relaxed);
  s.shedOverload = impl_->shedOverload_.load(std::memory_order_relaxed);
  s.shedRate = impl_->shedRate_.load(std::memory_order_relaxed);
  s.shedInflight = impl_->shedInflight_.load(std::memory_order_relaxed);
  s.deadlineExpired = impl_->deadlineExpired_.load(std::memory_order_relaxed);
  s.retries = impl_->retries_.load(std::memory_order_relaxed);
  s.warmResumes = impl_->warmResumes_.load(std::memory_order_relaxed);
  s.breakerOpens = impl_->breakerOpens_.load(std::memory_order_relaxed);
  s.breakerShortCircuits =
      impl_->breakerShortCircuits_.load(std::memory_order_relaxed);
  s.breakerProbes = impl_->breakerProbes_.load(std::memory_order_relaxed);
  s.programEvictions =
      impl_->programEvictions_.load(std::memory_order_relaxed);
  s.registryBytes = impl_->registryBytes_.load(std::memory_order_relaxed);
  const auto& pc = interp::ProgramCache::global();
  s.programCacheHits = pc.hits();
  s.programCacheMisses = pc.misses();
  s.programCacheInvalidations = pc.invalidations();
  s.programCacheEvictions = pc.evictions();
  interp::CodegenCounters cg = interp::CodegenCache::global().counters();
  s.codegenCompiles = cg.compiles;
  s.codegenDiskHits = cg.diskHits;
  s.codegenMemHits = cg.memHits;
  s.codegenFallbacks = cg.fallbacks;
  s.codegenEvictions = cg.memEvictions + cg.diskEvictions;
  return s;
}

}  // namespace parad::serve
