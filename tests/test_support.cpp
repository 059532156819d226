// Shared substrate (src/support/env.h, src/support/hash.h).
//
// The hash goldens pin every value that is persisted or seeds a schedule:
// FNV-1a checksums and fingerprints name codegen artifacts and validate
// durable records written by earlier builds, and the SplitMix64 fold drives
// the fabric and disk fault schedules the chaos sweeps replay. Any drift here
// orphans on-disk state and reshuffles seeded faults, so the expected values
// are fixed constants, not recomputed.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/interp/codegen.h"
#include "src/interp/lower.h"
#include "src/io/store.h"
#include "src/psim/faults.h"
#include "src/support/env.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

namespace parad {
namespace {

std::string errorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Support, HashGoldens) {
  EXPECT_EQ(hash::fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash::fnv1a("parad", 5), 0x0c119ca7a1c3731dull);
  EXPECT_EQ(hash::fnv1a("ad", 2, hash::fnv1a("par", 3)), 0x0c119ca7a1c3731dull);

  EXPECT_EQ(hash::mix64(0), 0u);
  EXPECT_EQ(hash::mix64(1), 0x5692161d100b05e5ull);
  EXPECT_EQ(hash::mix64(0x123456789abcdefull), 0xb2c058e4ebb5112cull);
  Rng r(42);
  EXPECT_EQ(r.nextU64(), 0xbdd732262feb6e95ull);
  EXPECT_EQ(r.nextU64(), 0x28efe333b266f103ull);

  // Structural and closure fingerprints: the latter names codegen artifacts
  // on disk (parad_cg_<fp>.so), and mixes in the codegen ABI and generator
  // versions, so it moves whenever either is bumped.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "f", {ir::Type::PtrF64, ir::Type::I64},
                        ir::Type::F64);
  auto x = b.param(0);
  auto acc = b.alloc(b.constI(1), ir::Type::F64);
  b.store(acc, b.constI(0), b.constF(0.5));
  b.emitFor(b.constI(0), b.param(1), [&](ir::Value i) {
    b.store(acc, b.constI(0),
            b.fadd(b.load(acc, b.constI(0)),
                   b.fmul(b.load(x, i), b.constF(2.5))));
  });
  b.ret(b.load(acc, b.constI(0)));
  b.finish();
  EXPECT_EQ(interp::fingerprint(mod.get("f")), 0x5656c86a4360d782ull);
  auto xm = interp::compileClosure(mod, mod.get("f"));
  EXPECT_EQ(interp::closureFingerprint(*xm), 0xb0e015e3899be0c1ull);
}

TEST(Support, FaultDrawGoldens) {
  psim::FaultPlan fp(psim::parseFaultSpec(
      "seed=7,drop=0.3,dup=0.2,delay=0.5,delayns=1000,straggle=0.5,factor=3,"
      "allocfail=0.25,kill=0.5,killns=100"));
  struct Want {
    int retransmits;
    double delayNs;
    bool dup;
    double slowdown;
    bool allocFails;
    double kill1;
  };
  const Want want[] = {
      {0, 318.21975538218015, true, 1, true, -1},
      {0, 0, false, 1, false, 161.11997038793899},
      {0, 0, false, 1, true, 125.49981674148178},
      {1, 0, false, 3, false, -1},
  };
  for (int k = 0; k < 4; ++k) {
    psim::FaultPlan::SendFaults f = fp.onSend(k, k + 1, 3 * k, 10 + k);
    EXPECT_EQ(f.retransmits, want[k].retransmits) << k;
    EXPECT_EQ(f.extraDelayNs, want[k].delayNs) << k;
    EXPECT_EQ(f.duplicate, want[k].dup) << k;
    EXPECT_EQ(fp.slowdown(k), want[k].slowdown) << k;
    EXPECT_EQ(fp.allocFails(static_cast<std::uint64_t>(k)), want[k].allocFails)
        << k;
    EXPECT_EQ(fp.killTime(k, 0), -1) << k;
    EXPECT_EQ(fp.killTime(k, 1), want[k].kill1) << k;
  }

  io::IoFaultConfig ic;
  ic.enabled = true;
  ic.seed = 11;
  ic.failRate = 0.4;
  ic.tornRate = 0.5;
  ic.corruptRate = 0.5;
  io::IoFaultPlan ip(ic);
  const bool fails[] = {false, false, true, true};
  const std::size_t torn[] = {993, 990, 4096, 3915};
  const std::size_t bit[] = {SIZE_MAX, SIZE_MAX, 11410, 1032};
  for (std::uint64_t k = 0; k < 4; ++k) {
    EXPECT_EQ(ip.writeFails(k * 977, k), fails[k]) << k;
    EXPECT_EQ(ip.tornLength(k * 977, k, 4096), torn[k]) << k;
    EXPECT_EQ(ip.corruptBit(k * 977, k, 4096), bit[k]) << k;
  }
}

TEST(Support, NearestNameIsFirstStrictMinimumWithinTwoEdits) {
  const char* names[] = {"drop", "dip", "dup"};
  EXPECT_EQ(env::nearestName("drp", names), "drop");
  EXPECT_EQ(env::nearestName("dap", names), "dip");  // ties: the first wins
  EXPECT_EQ(env::nearestName("duplicate", names), "");
  EXPECT_EQ(env::editDistance("kitten", "sitting"), 3u);
}

TEST(Support, StrictKnobReaders) {
  const char* knob = "PARAD_TEST_SUPPORT_KNOB";
  {
    test::EnvVar v(knob, "");
    EXPECT_FALSE(env::count("test", knob).has_value());
    EXPECT_FALSE(env::real("test", knob).has_value());
    EXPECT_EQ(env::text(knob), "");
  }
  {
    test::EnvVar v(knob, "18446744073709551615");
    EXPECT_EQ(env::count("test", knob), 18446744073709551615ull);
    EXPECT_EQ(errorOf([&] { env::count("test", knob, 7); }),
              "test: PARAD_TEST_SUPPORT_KNOB must be at most 7, got "
              "'18446744073709551615'");
  }
  {
    test::EnvVar v(knob, "64MB");
    EXPECT_EQ(errorOf([&] { env::count("test", knob); }),
              "test: malformed PARAD_TEST_SUPPORT_KNOB='64MB' (expected a "
              "number)");
  }
  {
    test::EnvVar v(knob, "1.5");
    EXPECT_EQ(env::real("test", knob), 1.5);
    EXPECT_EQ(errorOf([&] { env::count("test", knob); }),
              "test: PARAD_TEST_SUPPORT_KNOB must be a non-negative integer, "
              "got '1.5'");
  }
  {
    test::EnvVar v(knob, "-1");
    EXPECT_EQ(errorOf([&] { env::real("test", knob); }),
              "test: PARAD_TEST_SUPPORT_KNOB must be non-negative, got '-1'");
  }
  // strtod parses these, but no knob means "not a number" or "forever".
  for (const char* bad : {"nan", "inf", "-inf", "Infinity", "1e999"}) {
    test::EnvVar v(knob, bad);
    EXPECT_EQ(errorOf([&] { env::real("test", knob); }),
              std::string("test: PARAD_TEST_SUPPORT_KNOB must be finite, "
                          "got '") +
                  bad + "'");
    EXPECT_EQ(errorOf([&] { env::count("test", knob); }),
              std::string("test: PARAD_TEST_SUPPORT_KNOB must be finite, "
                          "got '") +
                  bad + "'");
  }
}

}  // namespace
}  // namespace parad
