// Backend registry + native codegen backend (DESIGN.md §13).
//
// Covers the pluggable-engine surface the differential suites assume:
// registry contents and alias resolution, strict PARAD_ENGINE-style spec
// rejection (structured error, did-you-mean), runtime registration of custom
// backends, and the codegen artifact cache life cycle — compile-once /
// memory-hit / disk-reuse-across-processes (simulated via clear()),
// corrupt- and stale-artifact invalidation, fingerprint revalidation after a
// pass mutates IR in place, and the graceful no-compiler fallback to exec —
// plus every exit of generated code's inline f64 load/store path, each
// compared bit for bit against exec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "src/interp/backend.h"
#include "src/interp/codegen.h"
#include "src/interp/lower.h"
#include "src/passes/passes.h"
#include "src/support/common.h"
#include "tests/test_util.h"

namespace parad {
namespace {

using ir::Type;
using ir::Value;

// ---------------------------------------------------------------------------
// Fixtures and helpers.

/// Restores the process-wide default engine on scope exit.
struct EngineGuard {
  std::string saved;
  EngineGuard() : saved(interp::defaultEngine()) {}
  ~EngineGuard() { interp::setDefaultEngine(saved); }
};

/// Points the codegen cache at a private fresh directory for one test and
/// restores the previous configuration (plus a clean in-memory cache) on
/// exit. Disk artifacts from other tests can then never satisfy a lookup.
struct CodegenSandbox {
  interp::CodegenConfig saved;
  std::string dir;

  explicit CodegenSandbox(interp::CodegenConfig cfg = {}) {
    auto& cache = interp::CodegenCache::global();
    saved = cache.config();
    std::string tmpl = ::testing::TempDir() + "parad_backend_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    char* made = ::mkdtemp(buf.data());
    PARAD_CHECK(made != nullptr, "mkdtemp failed for ", tmpl);
    dir = made;
    cfg.cacheDir = dir;
    cache.setConfig(cfg);
    cache.clear();
    cache.clearRemarks();
  }
  ~CodegenSandbox() {
    auto& cache = interp::CodegenCache::global();
    cache.setConfig(saved);
    cache.clear();
    cache.clearRemarks();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// f(x: ptr<f64>, n) -> f64: a small arithmetic kernel whose one tunable
/// constant makes structurally-distinct closures on demand (distinct
/// fingerprints, so tests never collide in the artifact cache).
ir::Module arithModule(double c) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto n = b.param(1);
  auto acc = b.alloc(b.constI(1), Type::F64);
  b.store(acc, b.constI(0), b.constF(0));
  b.emitFor(b.constI(0), n, [&](Value i) {
    auto v = b.fadd(b.fmul(b.load(x, i), b.constF(c)), b.constF(0.25));
    auto cur = b.load(acc, b.constI(0));
    b.store(acc, b.constI(0), b.fadd(cur, v));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  return mod;
}

const std::vector<double> kInput = {0.5, -1.25, 3.0, 0.125, 7.5};

double runWith(const ir::Module& mod, std::string_view engine) {
  psim::Machine m;
  psim::RtPtr p = test::makeF64(m, kInput);
  interp::RtVal out{};
  m.run({1, 4}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m, engine);
    out = it.run(mod.get("f"), {interp::RtVal::P(p), interp::RtVal::I(5)},
                 env);
  });
  return out.u.f;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
  return buf;
}

/// On-disk artifact path the cache uses for this closure (content-addressed
/// naming contract: parad_cg_<16-hex key>.so under the cache dir).
std::string artifactPath(const ir::Module& mod) {
  auto xm = interp::compileClosure(mod, mod.get("f"));
  auto& cache = interp::CodegenCache::global();
  return cache.cacheDirInUse() + "/parad_cg_" +
         hex64(cache.artifactKey(*xm)) + ".so";
}

// ---------------------------------------------------------------------------
// Registry surface.

TEST(BackendRegistry, BuiltinsRegistered) {
  auto& reg = interp::BackendRegistry::global();
  std::vector<std::string> names = reg.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "exec"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "tree"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "codegen"), names.end());

  const interp::ExecBackend* exec = reg.find("exec");
  ASSERT_NE(exec, nullptr);
  EXPECT_FALSE(exec->description().empty());

  // find() is exact canonical lookup: aliases resolve only through resolve().
  EXPECT_EQ(reg.find("lowered"), nullptr);
  EXPECT_EQ(reg.find("treewalk"), nullptr);
}

TEST(BackendRegistry, ResolvesAliases) {
  auto& reg = interp::BackendRegistry::global();
  EXPECT_EQ(reg.resolve("lowered").name(), "exec");
  EXPECT_EQ(reg.resolve("treewalk").name(), "tree");
  EXPECT_EQ(reg.resolve("exec").name(), "exec");
  EXPECT_EQ(reg.resolve("tree").name(), "tree");
  EXPECT_EQ(reg.resolve("codegen").name(), "codegen");
}

TEST(BackendRegistry, SetDefaultEngineStoresCanonicalName) {
  EngineGuard guard;
  interp::setDefaultEngine("lowered");
  EXPECT_EQ(interp::defaultEngine(), "exec");
  interp::setDefaultEngine("treewalk");
  EXPECT_EQ(interp::defaultEngine(), "tree");
}

TEST(BackendRegistry, UnknownEngineRejectedWithSuggestion) {
  auto& reg = interp::BackendRegistry::global();
  try {
    reg.resolve("exe");  // one edit away from "exec"
    FAIL() << "expected resolve to reject an unknown engine";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'exe'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'exec'?"), std::string::npos) << msg;
    // The full registered list, in deterministic (sorted) order.
    EXPECT_NE(msg.find("backends: "), std::string::npos) << msg;
    EXPECT_NE(msg.find("codegen"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tree"), std::string::npos) << msg;
  }
}

TEST(BackendRegistry, UnknownEngineFarFromAnyNameGetsNoSuggestion) {
  try {
    interp::BackendRegistry::global().resolve("fortran");
    FAIL() << "expected resolve to reject an unknown engine";
  } catch (const Error& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unknown backend 'fortran'"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

namespace {
/// Minimal runtime backend with a caller-chosen name (golden-message test).
class NamedStub final : public interp::ExecBackend {
 public:
  explicit NamedStub(std::string name) : name_(std::move(name)) {}
  std::string_view name() const override { return name_; }
  std::string_view description() const override { return "test stub"; }
  interp::RtVal run(const ir::Module& mod, const ir::Function& fn,
                    std::vector<interp::RtVal> args, psim::Machine& machine,
                    psim::RankEnv& env) const override {
    return interp::BackendRegistry::global().resolve("exec").run(
        mod, fn, std::move(args), machine, env);
  }

 private:
  std::string name_;
};

std::string resolveErrorOf(std::string_view spec) {
  try {
    interp::BackendRegistry::global().resolve(spec);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}
}  // namespace

// Golden test: the strict PARAD_ENGINE-style rejection must list every
// registered backend — including runtime-registered ones — in deterministic
// sorted order, so error output is stable across runs and registries.
TEST(BackendRegistry, UnknownEngineListsRuntimeBackendsSorted) {
  auto& reg = interp::BackendRegistry::global();
  reg.add(std::make_unique<NamedStub>("aurora"));
  reg.add(std::make_unique<NamedStub>("zephyr"));
  EXPECT_EQ(resolveErrorOf("no-such-engine-at-all"),
            "engine: unknown backend 'no-such-engine-at-all' "
            "(backends: aurora, codegen, exec, tree, zephyr)");
  reg.remove("aurora");
  reg.remove("zephyr");
  // Removing them restores the built-in listing, still sorted.
  EXPECT_EQ(resolveErrorOf("no-such-engine-at-all"),
            "engine: unknown backend 'no-such-engine-at-all' "
            "(backends: codegen, exec, tree)");
}

TEST(BackendRegistry, SetDefaultEngineRejectsUnknown) {
  EngineGuard guard;
  EXPECT_THROW(interp::setDefaultEngine("bogus-engine"), Error);
  // A failed set leaves the previous default intact.
  EXPECT_EQ(interp::defaultEngine(), guard.saved);
}

namespace {
/// A runtime-registered backend: delegates to exec, counts invocations.
class MirrorBackend final : public interp::ExecBackend {
 public:
  explicit MirrorBackend(int* runs) : runs_(runs) {}
  std::string_view name() const override { return "mirror"; }
  std::string_view description() const override {
    return "test backend delegating to exec";
  }
  interp::RtVal run(const ir::Module& mod, const ir::Function& fn,
                    std::vector<interp::RtVal> args, psim::Machine& machine,
                    psim::RankEnv& env) const override {
    ++*runs_;
    return interp::BackendRegistry::global().resolve("exec").run(
        mod, fn, std::move(args), machine, env);
  }

 private:
  int* runs_;
};
}  // namespace

TEST(BackendRegistry, CustomBackendAddRunRemove) {
  auto& reg = interp::BackendRegistry::global();
  int runs = 0;
  reg.add(std::make_unique<MirrorBackend>(&runs));
  ASSERT_NE(reg.find("mirror"), nullptr);

  ir::Module mod = arithModule(1.5);
  double viaExec = runWith(mod, "exec");
  double viaMirror = runWith(mod, "mirror");
  EXPECT_EQ(viaExec, viaMirror);
  EXPECT_EQ(runs, 1);

  reg.remove("mirror");
  EXPECT_EQ(reg.find("mirror"), nullptr);
  EXPECT_THROW(reg.resolve("mirror"), Error);
}

// ---------------------------------------------------------------------------
// Codegen fingerprints and source emission.

TEST(Codegen, ClosureFingerprintTracksStructure) {
  ir::Module a1 = arithModule(1.5);
  ir::Module a2 = arithModule(1.5);
  ir::Module b = arithModule(2.5);
  auto xa1 = interp::compileClosure(a1, a1.get("f"));
  auto xa2 = interp::compileClosure(a2, a2.get("f"));
  auto xb = interp::compileClosure(b, b.get("f"));
  // Content-addressed: structurally identical closures share a fingerprint
  // regardless of module identity; one changed constant separates them.
  EXPECT_EQ(interp::closureFingerprint(*xa1),
            interp::closureFingerprint(*xa2));
  EXPECT_NE(interp::closureFingerprint(*xa1), interp::closureFingerprint(*xb));
}

TEST(Codegen, EmitClosureSourceIsSelfContained) {
  ir::Module mod = arithModule(1.5);
  auto xm = interp::compileClosure(mod, mod.get("f"));
  std::string src = interp::emitClosureSource(*xm);
  // The required C ABI exports and the bit-exact constant helpers.
  EXPECT_NE(src.find("parad_cg_abi"), std::string::npos);
  EXPECT_NE(src.find("parad_cg_fp"), std::string::npos);
  EXPECT_NE(src.find("parad_cg_range"), std::string::npos);
  EXPECT_NE(src.find("pd_f64"), std::string::npos);
  // No headers at all: the TU needs neither the parad source tree nor the
  // standard library's headers on the include path.
  EXPECT_EQ(src.find("#include \""), std::string::npos);
  EXPECT_EQ(src.find("#include <"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Codegen artifact-cache life cycle.
//
// These tests need a host compiler; when the build-time compiler is somehow
// unavailable at test time they would exercise the fallback path instead and
// misreport, so they skip explicitly.

bool hostCompilerAvailable() {
  static const bool available = [] {
    ir::Module probe = arithModule(123.456);  // unlikely to collide
    CodegenSandbox sandbox;
    (void)runWith(probe, "codegen");
    return interp::CodegenCache::global().counters().fallbacks == 0 ||
           interp::CodegenCache::global().remarksDump().find(
               "no usable host compiler") == std::string::npos;
  }();
  return available;
}

TEST(Codegen, CompileOnceThenMemoryHitThenDiskReuse) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(1.5);
  double want = runWith(mod, "exec");

  // First run: source emitted, host compiler invoked, artifact installed.
  auto c0 = cache.counters();
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c1 = cache.counters();
  EXPECT_EQ(c1.compiles, c0.compiles + 1);
  EXPECT_EQ(c1.fallbacks, c0.fallbacks);
  EXPECT_NE(cache.remarksDump().find("codegen: compiled @f"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(artifactPath(mod)));

  // Second run in the same process: served from the in-memory cache.
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c2 = cache.counters();
  EXPECT_EQ(c2.compiles, c1.compiles);
  EXPECT_GT(c2.memHits, c1.memHits);

  // clear() drops the in-memory artifacts but not the disk: the next lookup
  // models a *fresh process* against a warm cache directory and must reuse
  // the shared object without recompiling.
  cache.clear();
  cache.clearRemarks();
  EXPECT_EQ(runWith(mod, "codegen"), want);
  auto c3 = cache.counters();
  EXPECT_EQ(c3.compiles, c2.compiles);
  EXPECT_EQ(c3.diskHits, c2.diskHits + 1);
  EXPECT_NE(cache.remarksDump().find("reused on-disk artifact"),
            std::string::npos);
}

TEST(Codegen, CorruptArtifactIsDiscardedAndRecompiled) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(3.5);
  double want = runWith(mod, "exec");
  EXPECT_EQ(runWith(mod, "codegen"), want);
  std::uint64_t compiles = cache.counters().compiles;

  // Simulate a fresh process first (dlclose — never scribble over a shared
  // object that is still mapped), then trash the installed artifact.
  cache.clear();
  cache.clearRemarks();
  std::string so = artifactPath(mod);
  ASSERT_TRUE(std::filesystem::exists(so));
  std::filesystem::remove(so);
  {
    std::ofstream out(so, std::ios::binary);
    out << "this is not a shared object";
  }

  EXPECT_EQ(runWith(mod, "codegen"), want);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_NE(cache.remarksDump().find("discarding stale artifact"),
            std::string::npos);
}

TEST(Codegen, StaleFingerprintArtifactIsInvalidated) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module modA = arithModule(4.5);
  ir::Module modB = arithModule(5.5);
  double wantB = runWith(modB, "exec");

  // Compile A, then plant its (valid, loadable) artifact at B's
  // content-address — the disk-cache poisoning a rename/copy race could
  // leave behind. The dlopen validation must reject it on the embedded
  // fingerprint and recompile.
  EXPECT_EQ(runWith(modA, "exec"), runWith(modA, "codegen"));
  std::filesystem::copy_file(
      artifactPath(modA), artifactPath(modB),
      std::filesystem::copy_options::overwrite_existing);
  cache.clear();
  cache.clearRemarks();
  std::uint64_t compiles = cache.counters().compiles;

  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_NE(cache.remarksDump().find("fingerprint mismatch"),
            std::string::npos);
}

TEST(Codegen, ChangedSourceUnderSameFingerprintRecompiles) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  // f calls scale directly, so scale's folded constant is written by the
  // generated call wrapper.
  ir::Module mod;
  {
    ir::FunctionBuilder g(mod, "scale", {Type::F64}, Type::F64);
    g.ret(g.fmul(g.param(0), g.constF(2.5)));
    g.finish();
  }
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  b.ret(b.call("scale", {b.load(b.param(0), b.constI(0))}));
  b.finish();
  auto xm = interp::compileClosure(mod, mod.get("f"));
  ASSERT_NE(cache.lookup(*xm), nullptr);

  // One folded constant changed, every program fingerprint kept: the same
  // closure fingerprint with different emitted code, which is what an
  // emitter change made without a generator-version bump looks like.
  interp::ExecModule edited = *xm;
  auto& inits =
      edited.programs[static_cast<std::size_t>(edited.indexOf.at("scale"))]
          .constInits;
  auto it = std::find_if(inits.begin(), inits.end(),
                         [](const interp::ConstInit& ci) { return ci.isF; });
  ASSERT_NE(it, inits.end());
  it->f += 1.0;
  ASSERT_EQ(interp::closureFingerprint(edited),
            interp::closureFingerprint(*xm));
  EXPECT_NE(cache.artifactKey(edited), cache.artifactKey(*xm));

  // A fresh process against the warm directory must compile the edited
  // closure, not load the object built from the original source.
  cache.clear();
  auto c0 = cache.counters();
  ASSERT_NE(cache.lookup(edited), nullptr);
  auto c1 = cache.counters();
  EXPECT_EQ(c1.compiles, c0.compiles + 1);
  EXPECT_EQ(c1.diskHits, c0.diskHits);
  // Both objects now live side by side; the original still loads its own.
  cache.clear();
  ASSERT_NE(cache.lookup(*xm), nullptr);
  EXPECT_EQ(cache.counters().diskHits, c1.diskHits + 1);
  EXPECT_EQ(cache.counters().compiles, c1.compiles);
}

TEST(Codegen, PassMutationRelowersAndRecompiles) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  // Like arithModule, but the multiplier is a foldable const expression:
  // cleanup() collapses fadd(3.0, 3.5) to a constant, shrinking the function
  // without changing its value — mutation with a bit-identical result.
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto x = b.param(0);
    auto n = b.param(1);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    auto scale = b.fadd(b.constF(3.0), b.constF(3.5));
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto v = b.fadd(b.fmul(b.load(x, i), scale), b.constF(0.25));
      auto cur = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.fadd(cur, v));
    });
    b.ret(b.load(acc, b.constI(0)));
    b.finish();
  }
  auto before = interp::compileClosure(mod, mod.get("f"));
  std::uint64_t fpBefore = interp::closureFingerprint(*before);
  double want = runWith(mod, "exec");
  EXPECT_EQ(want, runWith(mod, "codegen"));
  std::uint64_t compiles = cache.counters().compiles;

  // cleanup() folds constants / eliminates dead code in place; the program
  // cache revalidates its structural fingerprint and relowers, and the
  // codegen cache sees a new closure fingerprint and compiles fresh — the
  // old artifact can never serve the mutated IR.
  passes::cleanup(mod, "f");
  auto after = interp::compileClosure(mod, mod.get("f"));
  std::uint64_t fpAfter = interp::closureFingerprint(*after);
  ASSERT_NE(fpBefore, fpAfter);

  EXPECT_EQ(want, runWith(mod, "exec"));
  EXPECT_EQ(want, runWith(mod, "codegen"));
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
}

TEST(Codegen, MemoryCapEvictsLruArtifactsAndDiskStillServes) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  interp::CodegenConfig cfg;
  cfg.memCapacityBytes = 1;  // far below one .so: keep only the newest
  CodegenSandbox sandbox(cfg);
  auto& cache = interp::CodegenCache::global();
  ir::Module modA = arithModule(21.5);
  ir::Module modB = arithModule(22.5);
  double wantA = runWith(modA, "exec");
  double wantB = runWith(modB, "exec");

  auto c0 = cache.counters();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  // Compiling B pushes A's artifact out of the in-process cache (the cap
  // never evicts the entry being inserted, so B itself survives).
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  auto c1 = cache.counters();
  EXPECT_EQ(c1.compiles, c0.compiles + 2);
  EXPECT_GE(c1.memEvictions, c0.memEvictions + 1);

  // A's shared object is still installed on disk: re-running A is a disk
  // hit, not a recompile — eviction trades memory for dlopens, never
  // correctness.
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  auto c2 = cache.counters();
  EXPECT_EQ(c2.compiles, c1.compiles);
  EXPECT_EQ(c2.diskHits, c1.diskHits + 1);
  EXPECT_TRUE(std::filesystem::exists(artifactPath(modA)));

  // B (the LRU now) was evicted in turn; its run also comes back from disk
  // and stays bit-identical.
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  EXPECT_EQ(cache.counters().compiles, c2.compiles);
}

TEST(Codegen, DiskCapSweepsOldestArtifacts) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  interp::CodegenConfig cfg;
  cfg.diskCapacityBytes = 1;  // every install sweeps all older artifacts
  CodegenSandbox sandbox(cfg);
  auto& cache = interp::CodegenCache::global();
  ir::Module modA = arithModule(31.5);
  ir::Module modB = arithModule(32.5);
  double wantA = runWith(modA, "exec");
  double wantB = runWith(modB, "exec");

  auto c0 = cache.counters();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  ASSERT_TRUE(std::filesystem::exists(artifactPath(modA)));
  // Installing B sweeps A's .so (and its source/log siblings) from the cache
  // directory; the freshly-installed artifact is never its own victim.
  EXPECT_EQ(runWith(modB, "codegen"), wantB);
  auto c1 = cache.counters();
  EXPECT_GE(c1.diskEvictions, c0.diskEvictions + 1);
  EXPECT_FALSE(std::filesystem::exists(artifactPath(modA)));
  EXPECT_TRUE(std::filesystem::exists(artifactPath(modB)));

  // A fresh process (simulated by clear()) finds A gone from memory and
  // disk: the lookup recompiles and the value is still bit-identical.
  cache.clear();
  EXPECT_EQ(runWith(modA, "codegen"), wantA);
  EXPECT_EQ(cache.counters().compiles, c1.compiles + 1);
}

TEST(Codegen, ExtraFlagsArePartOfTheArtifactKey) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  CodegenSandbox sandbox;
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(51.5);
  double want = runWith(mod, "exec");
  EXPECT_EQ(runWith(mod, "codegen"), want);
  std::uint64_t compiles = cache.counters().compiles;
  auto soCount = [&] {
    int n = 0;
    for (const auto& e : std::filesystem::directory_iterator(sandbox.dir))
      n += e.path().extension() == ".so" ? 1 : 0;
    return n;
  };
  ASSERT_EQ(soCount(), 1);
  std::string plain = artifactPath(mod);

  // The same closure under extra flags is a different object: compiled
  // again, beside the first, never served from it.
  interp::CodegenConfig cfg = cache.config();
  cfg.extraFlags = "-DPARAD_CG_FLAG_PROBE=1";
  cache.setConfig(cfg);
  EXPECT_EQ(runWith(mod, "codegen"), want);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_EQ(soCount(), 2);
  EXPECT_NE(artifactPath(mod), plain);
  EXPECT_TRUE(std::filesystem::exists(artifactPath(mod)));
  EXPECT_TRUE(std::filesystem::exists(plain));

  // Back to no extra flags: the first object serves again.
  cfg.extraFlags.clear();
  cache.setConfig(cfg);
  auto hits = cache.counters().memHits;
  EXPECT_EQ(runWith(mod, "codegen"), want);
  EXPECT_EQ(cache.counters().compiles, compiles + 1);
  EXPECT_EQ(cache.counters().memHits, hits + 1);
}

TEST(Codegen, ByteCapKnobsRejectUnitSuffixes) {
  if (!hostCompilerAvailable()) GTEST_SKIP() << "no host compiler";
  for (const char* knob :
       {"PARAD_CODEGEN_MEM_BYTES", "PARAD_CODEGEN_DISK_BYTES"}) {
    CodegenSandbox sandbox;
    test::EnvVar cap(knob, "64MB");
    ir::Module mod = arithModule(41.5);
    std::string msg;
    try {
      runWith(mod, "codegen");
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find(std::string(knob) + "='64MB'"), std::string::npos)
        << knob << ": " << msg;
  }
}

// ---------------------------------------------------------------------------
// Codegen memory fast path. Generated code serves an in-bounds access to a
// live f64 object with a current charge memo inline and sends every other
// access through the host callback; each case below drives one of those
// exits and checks values, virtual time and dispatch counts bit for bit
// against exec (or, for a fault, the same error text).

/// One run's observable outcome: the entry's result, every rank's x buffer,
/// the makespan and the machine's counters — or the error text.
struct Outcome {
  double ret = 0;
  std::vector<std::vector<double>> x;
  double makespan = 0;
  std::uint64_t insts = 0;
  std::uint64_t restores = 0;
  std::string error;
};

struct RunSpec {
  psim::Machine::Launch launch{1, 1};
  int home = 0;  // home socket of every rank's x buffer
  psim::MachineConfig mc;
};

/// Runs f(x, 5) on every rank of `spec.launch`, rank r's x being kInput + r.
Outcome runKernel(const ir::Module& mod, std::string_view engine,
                  const RunSpec& spec) {
  psim::Machine m(spec.mc);
  const i64 n = static_cast<i64>(kInput.size());
  std::vector<psim::RtPtr> xs;
  for (int r = 0; r < spec.launch.ranks; ++r) {
    xs.push_back(m.mem().alloc(Type::F64, n, spec.home));
    for (i64 k = 0; k < n; ++k)
      m.mem().atF(xs.back(), k) = kInput[static_cast<std::size_t>(k)] + r;
  }
  Outcome o;
  try {
    o.makespan = m.run(spec.launch, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m, engine);
      interp::RtVal v = it.run(
          mod.get("f"),
          {interp::RtVal::P(xs[static_cast<std::size_t>(env.rank)]),
           interp::RtVal::I(n)},
          env);
      if (env.rank == 0) o.ret = v.u.f;
    });
  } catch (const Error& e) {
    o.error = e.what();
    return o;
  }
  for (psim::RtPtr p : xs) o.x.push_back(test::readF64(m, p, n));
  o.insts = m.stats().instsExecuted;
  o.restores = m.stats().restores;
  return o;
}

/// An error's last clause ("index 5 of 5", "use after free (object id 3)").
/// Each engine's checks name their own file and line, and the reference
/// engine words bounds errors through the memory manager's accessors, so
/// only this part is comparable between tree and exec.
std::string errorGist(const std::string& error) {
  std::size_t k = error.rfind(": ");
  return k == std::string::npos ? error : error.substr(k + 2);
}

/// Expects `got` to match `want` in every observable. `sameProbes`: both
/// engines run the kill and watchdog probes at range exits (exec, codegen).
/// The reference engine probes before every instruction instead, so against
/// it a kill fires at a slightly different clock and a replayed run's
/// makespan is not comparable; and its checks carry their own locations and
/// wording, so errors compare by their gist.
void expectSameOutcome(const Outcome& got, const Outcome& want,
                       bool sameProbes) {
  if (sameProbes) {
    EXPECT_EQ(got.error, want.error);
  } else {
    EXPECT_EQ(errorGist(got.error), errorGist(want.error))
        << got.error << "\n" << want.error;
  }
  EXPECT_EQ(got.ret, want.ret);
  EXPECT_EQ(got.x, want.x);
  if (sameProbes || want.restores == 0) {
    EXPECT_EQ(got.makespan, want.makespan);
  }
  EXPECT_EQ(got.insts, want.insts);
  EXPECT_EQ(got.restores, want.restores);
}

/// Runs `mod` on the reference engine (tree) and on exec and expects them
/// to agree, which checks exec's memory fast path and register-resident
/// clock; then, when a host compiler exists, on generated code (which must
/// not fall back), which must match exec exactly, error text included.
/// Returns exec's outcome.
Outcome expectEnginesMatch(const ir::Module& mod, const RunSpec& spec = {}) {
  Outcome want = runKernel(mod, "exec", spec);
  {
    SCOPED_TRACE("tree vs exec");
    expectSameOutcome(runKernel(mod, "tree", spec), want, false);
  }
  if (!hostCompilerAvailable()) return want;
  SCOPED_TRACE("codegen vs exec");
  auto& cache = interp::CodegenCache::global();
  std::uint64_t fallbacks = cache.counters().fallbacks;
  Outcome got = runKernel(mod, "codegen", spec);
  EXPECT_EQ(cache.counters().fallbacks, fallbacks) << cache.remarksDump();
  expectSameOutcome(got, want, true);
  return want;
}

/// f(x: ptr<f64>, n) -> f64 with the body supplied by the test.
ir::Module kernel(
    const std::function<Value(ir::FunctionBuilder&, Value, Value)>& body) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  b.ret(body(b, b.param(0), b.param(1)));
  b.finish();
  return mod;
}

TEST(Codegen, FastPathFaultsRaiseExecErrors) {
  CodegenSandbox sandbox;
  auto useAfterFree = [](bool store) {
    return kernel([store](ir::FunctionBuilder& b, Value x, Value n) {
      auto t = b.alloc(n, Type::F64);
      b.store(t, b.constI(0), b.load(x, b.constI(0)));
      b.free_(t);
      if (store) b.store(t, b.constI(0), b.constF(1.0));
      return b.load(t, b.constI(0));
    });
  };
  auto at = [](std::int64_t off, std::int64_t idx, bool store) {
    return kernel([=](ir::FunctionBuilder& b, Value x, Value n) {
      (void)n;
      auto p = b.ptrOffset(x, b.constI(off));
      if (store) b.store(p, b.constI(idx), b.constF(2.0));
      return b.load(p, b.constI(idx));
    });
  };
  struct Case {
    const char* name;
    ir::Module mod;
    const char* error;  // expected substring; nullptr: no error
  };
  Case cases[] = {
      {"load after free", useAfterFree(false), "use after free"},
      {"store after free", useAfterFree(true), "use after free"},
      {"load past the end", at(0, 5, false), "index 5 of 5"},
      {"store past the end", at(0, 5, true), "index 5 of 5"},
      {"negative load", at(0, -1, false), "index -1 of 5"},
      {"negative store", at(0, -1, true), "index -1 of 5"},
      {"negative offset, past the end", at(-3, 8, false), "index 5 of 5"},
      {"negative offset, in bounds", at(-3, 7, true), nullptr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Outcome o = expectEnginesMatch(c.mod);
    if (c.error == nullptr)
      EXPECT_EQ(o.error, "");
    else
      EXPECT_NE(o.error.find(c.error), std::string::npos) << o.error;
  }
}

TEST(Codegen, I64AndPointerElementsMatchExec) {
  CodegenSandbox sandbox;
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    auto iv = b.alloc(n, Type::I64);
    auto pv = b.alloc(b.constI(1), Type::PtrF64);
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.store(pv, b.constI(0), x);
    b.emitFor(b.constI(0), n, [&](Value i) {
      b.store(iv, i, b.imul(i, b.constI(3)));
    });
    b.emitFor(b.constI(0), n, [&](Value i) {
      auto y = b.load(pv, b.constI(0));
      auto v = b.fmul(b.load(y, i), b.itof(b.load(iv, i)));
      b.store(y, i, v);
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), v));
    });
    return b.load(acc, b.constI(0));
  });
  Outcome o = expectEnginesMatch(mod);
  EXPECT_EQ(o.error, "");
  EXPECT_EQ(o.x[0][1], kInput[1] * 3);
}

TEST(Codegen, RemoteHomedObjectMatchesExec) {
  CodegenSandbox sandbox;
  ir::Module mod = arithModule(61.5);
  RunSpec remote;
  remote.home = 1;  // the only worker runs on socket 0
  Outcome far = expectEnginesMatch(mod, remote);
  Outcome near = expectEnginesMatch(mod);
  EXPECT_EQ(far.ret, near.ret);
  EXPECT_GT(far.makespan, near.makespan);  // remote latency was charged
}

TEST(Codegen, ForkSharerChangeRefoldsChargeMemo) {
  CodegenSandbox sandbox;
  // 64 threads over both sockets: entering the fork raises each socket's
  // sharer count from 0 or 1 to 32 (a lower per-worker bandwidth, so a new
  // 8-byte charge), leaving it restores the count; the memo is refolded on
  // the first access after each change. The loads before, inside and after
  // the fork share ranges with ones that hit the fast path.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    const i64 len = 128;
    auto t = b.alloc(b.constI(len), Type::F64);  // homed on socket 0
    auto s = b.load(x, b.constI(0));
    b.store(t, b.constI(0), s);
    b.emitFork(b.constI(64), [&](Value) {
      b.emitWorkshare(b.constI(0), b.constI(len), [&](Value i) {
        auto xi = b.load(x, b.irem(i, n));
        b.store(t, i, b.fadd(b.fmul(xi, b.itof(i)), s));
      });
    });
    auto r = b.fadd(b.load(t, b.constI(len - 1)), b.load(x, b.constI(1)));
    b.store(x, b.constI(2), r);
    return b.fadd(r, b.load(t, b.constI(40)));
  });
  for (int home : {0, 1}) {
    SCOPED_TRACE(home);
    RunSpec spec;
    spec.launch = {1, 64};
    spec.home = home;
    EXPECT_EQ(expectEnginesMatch(mod, spec).error, "");
  }
}

TEST(Codegen, AllocMidRangeGrowsViewTable) {
  CodegenSandbox sandbox;
  // Every iteration allocates and then, in the same range, loads from x and
  // from the new object: the view table grows (and moves) under the
  // generated code many times.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(0));
    b.emitFor(b.constI(0), b.constI(200), [&](Value r) {
      auto t = b.alloc(n, Type::F64);
      b.store(t, b.irem(r, n), b.fadd(b.load(x, b.irem(r, n)), b.itof(r)));
      auto v = b.load(t, b.irem(r, n));
      b.store(acc, b.constI(0), b.fadd(b.load(acc, b.constI(0)), v));
    });
    return b.load(acc, b.constI(0));
  });
  EXPECT_EQ(expectEnginesMatch(mod).error, "");
}

TEST(Codegen, KillReplayResyncsViewTable) {
  CodegenSandbox sandbox;
  // Each round allocates a scratch object, computes through it, frees it and
  // ends in a barrier (a checkpoint boundary). A rank kill rolls memory back
  // to the last checkpoint — dropping later objects and reinstating freed
  // ones — and the replay re-allocates the same ids, so generated code only
  // stays correct if the view table follows every restore.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    b.emitFor(b.constI(0), b.constI(8), [&](Value round) {
      auto t = b.alloc(n, Type::F64);
      b.emitFor(b.constI(0), n, [&](Value i) {
        b.store(t, i, b.fadd(b.fmul(b.load(x, i), b.constF(1.5)),
                             b.itof(round)));
      });
      b.emitFor(b.constI(0), n, [&](Value i) {
        b.store(x, i, b.fmul(b.load(t, i), b.constF(0.5)));
      });
      b.free_(t);
      b.mpBarrier();
    });
    return b.load(x, b.constI(0));
  });
  RunSpec spec;
  spec.launch = {4, 1};
  spec.mc.faults.enabled = true;  // also keeps a PARAD_FAULTS spec out
  spec.mc.faults.seed = 21;
  spec.mc.faults.ckptInterval = 1;
  Outcome clean = expectEnginesMatch(mod, spec);
  ASSERT_EQ(clean.error, "");
  spec.mc.faults.killRate = 0.6;
  spec.mc.faults.killNs = clean.makespan * 0.5;
  spec.mc.faults.retryBudget = 64;
  Outcome faulty = expectEnginesMatch(mod, spec);
  ASSERT_EQ(faulty.error, "");
  EXPECT_GT(faulty.restores, 0u);
  EXPECT_EQ(faulty.x, clean.x);
}

// ---------------------------------------------------------------------------
// Register-resident ranges: C locals, per-range object resolution and direct
// calls. Each case drives one path where a value or a resolved pointer lives
// across something that could invalidate it, bit for bit against exec.

/// The generated source for `mod`'s closure of "f".
std::string sourceOf(const ir::Module& mod) {
  return interp::emitClosureSource(*interp::compileClosure(mod, mod.get("f")));
}

TEST(Codegen, LocalSurvivesViewTableGrowth) {
  CodegenSandbox sandbox;
  // `v` is a C local of f's entry range; 40 Allocs (host ops) grow, and so
  // move, the view table between its definition and its reads.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    auto v = b.fmul(b.load(x, b.constI(1)), b.constF(2.5));
    Value last = x;
    for (int k = 0; k < 40; ++k) {
      last = b.alloc(n, Type::F64);
      b.store(last, b.constI(k % 5), v);
    }
    b.store(x, b.constI(2), v);
    return b.fadd(v, b.load(last, b.constI(4)));
  });
  EXPECT_NE(sourceOf(mod).find("parad_cg_val v"), std::string::npos);
  Outcome o = expectEnginesMatch(mod);
  EXPECT_EQ(o.error, "");
  EXPECT_EQ(o.x[0][2], kInput[1] * 2.5);
  EXPECT_EQ(o.ret, kInput[1] * 2.5 * 2);
}

TEST(Codegen, ResolvedPointerFreedMidRangeRaisesUseAfterFree) {
  CodegenSandbox sandbox;
  // `p` is resolved by its first load; the object is then freed by a host
  // op in the same range, or by a directly-called callee, and the next load
  // through `p` must re-resolve and raise exec's use-after-free.
  auto freedBy = [](bool viaCall) {
    ir::Module mod;
    {
      ir::FunctionBuilder g(mod, "release", {Type::PtrF64});
      g.free_(g.param(0));
      g.finish();
    }
    ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
    auto t = b.alloc(b.param(1), Type::F64);
    auto p = b.ptrOffset(t, b.constI(1));
    b.store(p, b.constI(0), b.load(b.param(0), b.constI(0)));
    auto first = b.load(p, b.constI(0));
    if (viaCall)
      b.call("release", {t});
    else
      b.free_(t);
    b.ret(b.fadd(first, b.load(p, b.constI(0))));
    b.finish();
    return mod;
  };
  for (bool viaCall : {false, true}) {
    SCOPED_TRACE(viaCall ? "freed by a callee" : "freed in the range");
    Outcome o = expectEnginesMatch(freedBy(viaCall));
    EXPECT_NE(o.error.find("use after free"), std::string::npos) << o.error;
  }
}

TEST(Codegen, ForkSegmentValueCrossesBarrier) {
  CodegenSandbox sandbox;
  // `a` is defined in segment 0 and read in segment 1, so it lives in the
  // frame and is saved and restored per thread; `w` is read only in segment
  // 0, so it is a C local of that segment's range.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    (void)n;
    b.emitFork(b.constI(4), [&](Value tid) {
      auto w = b.fmul(b.load(x, tid), b.constF(3.0));
      auto a = b.fadd(w, b.itof(tid));
      b.store(x, tid, w);
      b.barrier();
      b.store(x, tid, b.fsub(b.load(x, tid), a));
    });
    return b.load(x, b.constI(3));
  });
  RunSpec spec;
  spec.launch = {1, 4};
  Outcome o = expectEnginesMatch(mod, spec);
  EXPECT_EQ(o.error, "");
  for (int t = 0; t < 4; ++t) {
    double w = kInput[static_cast<std::size_t>(t)] * 3.0;
    EXPECT_EQ(o.x[0][static_cast<std::size_t>(t)], w - (w + t)) << t;
  }
}

TEST(Codegen, SelectOverPointerLocal) {
  CodegenSandbox sandbox;
  // Both arms of the Select are pointers, and its result is a C local that
  // is resolved at its first access like any frame-resident pointer.
  ir::Module mod = kernel([](ir::FunctionBuilder& b, Value x, Value n) {
    auto t = b.alloc(n, Type::F64);
    b.store(t, b.constI(3), b.constF(-4.0));
    auto pick = [&](Value cond) {
      auto p = b.select(cond, x, t);
      b.store(p, b.constI(4), b.fadd(b.load(p, b.constI(3)), b.constF(1)));
      return b.load(p, b.constI(4));
    };
    auto a = pick(b.igt(n, b.constI(3)));
    auto c = pick(b.ilt(n, b.constI(3)));
    return b.fmul(a, c);
  });
  Outcome o = expectEnginesMatch(mod);
  EXPECT_EQ(o.error, "");
  EXPECT_EQ(o.ret, (kInput[3] + 1) * (-4.0 + 1));
}

/// f(x, n) returns rec(depth) + x[0], where rec(k) recurses k deep.
ir::Module recursion(i64 depth) {
  ir::Module mod;
  {
    ir::FunctionBuilder b(mod, "rec", {Type::I64}, Type::F64);
    b.ret(b.constF(0));
    b.finish();
  }
  ir::FunctionBuilder r(mod, "rec", {Type::I64}, Type::F64);
  auto k = r.param(0);
  auto out = r.alloc(r.constI(1), Type::F64);
  r.emitIf(r.igt(k, r.constI(0)), [&] {
    auto v = r.call("rec", {r.isub(k, r.constI(1))});
    r.store(out, r.constI(0), r.fadd(v, r.constF(0.5)));
  });
  r.ret(r.load(out, r.constI(0)));
  r.finish();
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto v = b.call("rec", {b.constI(depth)});
  b.ret(b.fadd(v, b.load(b.param(0), b.constI(0))));
  b.finish();
  return mod;
}

TEST(Codegen, DirectCallRecursionMatchesExecPastMaxCallDepth) {
  CodegenSandbox sandbox;
  // f's call plus 510 nested ones is the deepest chain maxCallDepth (512)
  // admits; rec's frame fits on the native stack, so its calls are direct.
  ir::Module deep = recursion(510);
  EXPECT_NE(sourceOf(deep).find("static parad_cg_val c1("), std::string::npos);
  Outcome ok = expectEnginesMatch(deep);
  EXPECT_EQ(ok.error, "");
  EXPECT_EQ(ok.ret, 510 * 0.5 + kInput[0]);
  // One level deeper fails with exec's error text, file and line included,
  // since the failing check is exec's own.
  Outcome bad = expectEnginesMatch(recursion(511));
  EXPECT_NE(bad.error.find("call depth limit exceeded"), std::string::npos)
      << bad.error;
}

TEST(Codegen, LargeFrameCalleeTakesHostPath) {
  CodegenSandbox sandbox;
  // `wide` has over 512 values, more than a native-stack frame may hold, so
  // f calls it through the host; `small` is called directly.
  ir::Module mod;
  {
    ir::FunctionBuilder g(mod, "wide", {Type::F64}, Type::F64);
    Value v = g.param(0);
    for (int k = 0; k < 300; ++k)
      v = g.fadd(g.fmul(v, g.constF(0.999)), g.constF(1e-3 * k));
    g.ret(v);
    g.finish();
  }
  {
    ir::FunctionBuilder g(mod, "small", {Type::F64}, Type::F64);
    g.ret(g.fmul(g.param(0), g.param(0)));
    g.finish();
  }
  ir::FunctionBuilder b(mod, "f", {Type::PtrF64, Type::I64}, Type::F64);
  auto x = b.param(0);
  auto w = b.call("wide", {b.load(x, b.constI(2))});
  b.ret(b.fadd(w, b.call("small", {b.load(x, b.constI(1))})));
  b.finish();
  auto xm = interp::compileClosure(mod, mod.get("f"));
  ASSERT_GT(xm->programs[static_cast<std::size_t>(xm->indexOf.at("wide"))]
                .numValues,
            512);
  std::string src = interp::emitClosureSource(*xm);
  EXPECT_EQ(src.find("static parad_cg_val c" +
                     std::to_string(xm->indexOf.at("wide")) + "("),
            std::string::npos);
  EXPECT_NE(src.find("static parad_cg_val c" +
                     std::to_string(xm->indexOf.at("small")) + "("),
            std::string::npos);
  EXPECT_NE(src.find("c->api->call("), std::string::npos);
  EXPECT_EQ(expectEnginesMatch(mod).error, "");
}

TEST(Codegen, FallsBackToExecWithoutCompiler) {
  interp::CodegenConfig cfg;
  cfg.compiler = "/nonexistent/parad-no-such-compiler";
  CodegenSandbox sandbox(cfg);
  auto& cache = interp::CodegenCache::global();
  ir::Module mod = arithModule(7.5);

  auto before = cache.counters();
  // Identical result — the fallback IS the exec engine, not an approximation.
  EXPECT_EQ(runWith(mod, "codegen"), runWith(mod, "exec"));
  auto after = cache.counters();
  EXPECT_EQ(after.fallbacks, before.fallbacks + 1);
  EXPECT_EQ(after.compiles, before.compiles);

  // Structured Backend remark, not an error: the engine stays usable.
  std::string remarks = cache.remarksDump();
  EXPECT_NE(remarks.find("no usable host compiler"), std::string::npos)
      << remarks;
  EXPECT_NE(remarks.find("falling back to exec engine"), std::string::npos)
      << remarks;

  // The sticky failed-fingerprint set keeps later runs from re-probing the
  // toolchain per run; they still produce exec-identical results.
  EXPECT_EQ(runWith(mod, "codegen"), runWith(mod, "exec"));
  EXPECT_EQ(cache.counters().fallbacks, after.fallbacks + 1);
}

}  // namespace
}  // namespace parad
