// Virtual machine tests: message fabric, scheduler, NUMA/time model.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "tests/test_util.h"

using namespace parad;
using namespace parad::test;
using ir::Type;

namespace {

// Ring shift: each rank sends its buffer to (rank+1)%size with Isend/Irecv.
ir::Module buildRing(i64 n) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ring", {Type::PtrF64, Type::PtrF64});
  auto sendbuf = b.param(0), recvbuf = b.param(1);
  auto rank = b.mpRank();
  auto size = b.mpSize();
  auto right = b.irem(b.iadd(rank, b.constI(1)), size);
  auto left = b.irem(b.iadd(b.isub(rank, b.constI(1)), size), size);
  auto nn = b.constI(n);
  auto tag = b.constI(7);
  auto r0 = b.mpIrecv(recvbuf, nn, left, tag);
  auto s0 = b.mpIsend(sendbuf, nn, right, tag);
  b.mpWait(r0);
  b.mpWait(s0);
  b.ret();
  b.finish();
  ir::verify(mod);
  return mod;
}

}  // namespace

TEST(Psim, RingExchange) {
  const int R = 8;
  const i64 N = 16;
  ir::Module mod = buildRing(N);
  psim::Machine m;
  std::vector<psim::RtPtr> sendb(R), recvb(R);
  for (int r = 0; r < R; ++r) {
    sendb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    recvb[(std::size_t)r] = m.mem().alloc(Type::F64, N, 0);
    for (i64 k = 0; k < N; ++k)
      m.mem().atF(sendb[(std::size_t)r], k) = 100.0 * r + static_cast<double>(k);
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ring"),
           {interp::RtVal::P(sendb[(std::size_t)env.rank]),
            interp::RtVal::P(recvb[(std::size_t)env.rank])},
           env);
  });
  for (int r = 0; r < R; ++r) {
    int left = (r + R - 1) % R;
    for (i64 k = 0; k < N; ++k)
      EXPECT_DOUBLE_EQ(m.mem().atF(recvb[(std::size_t)r], k),
                       100.0 * left + static_cast<double>(k));
  }
  EXPECT_EQ(m.stats().messages, static_cast<std::uint64_t>(R));
}

TEST(Psim, BlockingSendRecvPair) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "pair", {Type::PtrF64});
  auto buf = b.param(0);
  auto rank = b.mpRank();
  b.emitIf(
      b.ieq(rank, b.constI(0)),
      [&] { b.mpSend(buf, b.constI(4), b.constI(1), b.constI(3)); },
      [&] { b.mpRecv(buf, b.constI(4), b.constI(0), b.constI(3)); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  auto b0 = makeF64(m, {1, 2, 3, 4});
  auto b1 = makeF64(m, {0, 0, 0, 0});
  psim::RtPtr bufs[2] = {b0, b1};
  m.run({2, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("pair"), {interp::RtVal::P(bufs[env.rank])}, env);
  });
  EXPECT_DOUBLE_EQ(m.mem().atF(b1, 3), 4.0);
}

TEST(Psim, AllreduceSumMinWithWinners) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "ar", {Type::PtrF64, Type::PtrF64, Type::PtrI64});
  auto send = b.param(0), recv = b.param(1), win = b.param(2);
  b.mpAllreduce(send, recv, b.constI(2), ir::ReduceKind::Min, win);
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  const int R = 4;
  std::vector<psim::RtPtr> sp(R), rp(R), wp(R);
  for (int r = 0; r < R; ++r) {
    sp[(std::size_t)r] = makeF64(m, {10.0 - r, 5.0 + r});
    rp[(std::size_t)r] = makeF64(m, {0, 0});
    wp[(std::size_t)r] = m.mem().alloc(Type::I64, 2, 0);
  }
  m.run({R, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("ar"),
           {interp::RtVal::P(sp[(std::size_t)env.rank]),
            interp::RtVal::P(rp[(std::size_t)env.rank]),
            interp::RtVal::P(wp[(std::size_t)env.rank])},
           env);
  });
  for (int r = 0; r < R; ++r) {
    EXPECT_DOUBLE_EQ(m.mem().atF(rp[(std::size_t)r], 0), 10.0 - (R - 1));
    EXPECT_DOUBLE_EQ(m.mem().atF(rp[(std::size_t)r], 1), 5.0);
    EXPECT_EQ(m.mem().atI(wp[(std::size_t)r], 0), R - 1);
    EXPECT_EQ(m.mem().atI(wp[(std::size_t)r], 1), 0);
  }
}

TEST(Psim, DeadlockDetected) {
  // Every rank recvs first: classic deadlock; must throw, not hang. One rank
  // receiving from itself runs inline on the caller and must report the
  // same deadlock.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "dl", {Type::PtrF64});
  auto buf = b.param(0);
  b.mpRecv(buf, b.constI(1), b.irem(b.iadd(b.mpRank(), b.constI(1)), b.mpSize()),
           b.constI(0));
  b.ret();
  b.finish();
  ir::verify(mod);
  for (int ranks : {1, 2}) {
    SCOPED_TRACE(ranks);
    psim::Machine m;
    auto b0 = makeF64(m, {0});
    auto b1 = makeF64(m, {0});
    psim::RtPtr bufs[2] = {b0, b1};
    try {
      m.run({ranks, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m);
        it.run(mod.get("dl"), {interp::RtVal::P(bufs[env.rank])}, env);
      });
      FAIL() << "expected a deadlock report";
    } catch (const psim::VmError& e) {
      EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::Deadlock);
    }
  }
}

TEST(Psim, RankErrorUnwindsBlockedRanks) {
  // Ranks 0-2 park in a recv that rank 3 never sends, and rank 3 throws. The
  // stranded ranks are reported as deadlocked, but the original error must
  // win, every started rank must have unwound its stack (its RAII guard
  // ran), and the Machine must then reproduce a clean run bit for bit.
  const int R = 4;
  const i64 N = 16;
  ir::Module mod = buildRing(N);
  psim::Machine m;
  std::vector<psim::RtPtr> sendb(R), recvb(R);
  for (int r = 0; r < R; ++r) {
    std::vector<double> v(N);
    for (i64 i = 0; i < N; ++i) v[(std::size_t)i] = r * 100.0 + (double)i;
    sendb[(std::size_t)r] = makeF64(m, v);
    recvb[(std::size_t)r] = makeF64(m, std::vector<double>(N, 0));
  }
  auto ring = [&] {
    double makespan = m.run({R, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("ring"),
             {interp::RtVal::P(sendb[(std::size_t)env.rank]),
              interp::RtVal::P(recvb[(std::size_t)env.rank])},
             env);
    });
    std::vector<double> out;
    for (int r = 0; r < R; ++r) {
      std::vector<double> v = readF64(m, recvb[(std::size_t)r], N);
      out.insert(out.end(), v.begin(), v.end());
    }
    return std::make_pair(makespan, out);
  };
  auto clean = ring();

  struct Guard {
    int* live;
    explicit Guard(int* l) : live(l) { ++*live; }
    ~Guard() { --*live; }
  };
  int live = 0, started = 0;
  auto scratch = makeF64(m, std::vector<double>(N, 0));
  try {
    m.run({R, 1}, [&](psim::RankEnv& env) {
      Guard g(&live);
      ++started;
      if (env.rank == R - 1) throw std::runtime_error("rank 3 failed");
      m.fabric()->recv(env.rank, env.main, scratch, N, /*src=*/R - 1,
                       /*tag=*/0);
    });
    FAIL() << "expected the rank error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 3 failed");
  }
  EXPECT_EQ(started, R);
  EXPECT_EQ(live, 0);

  auto again = ring();
  EXPECT_EQ(std::memcmp(&again.first, &clean.first, sizeof(double)), 0);
  ASSERT_EQ(again.second.size(), clean.second.size());
  EXPECT_EQ(std::memcmp(again.second.data(), clean.second.data(),
                        clean.second.size() * sizeof(double)),
            0);
}

TEST(Psim, StackPoolExhaustionIsCatchable) {
  // A rank stack that cannot be mapped (here: an address-space cap set in a
  // child process) is a catchable parad::Error raised before any rank runs,
  // and the Machine works again once the cap is lifted.
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto vmBytes = [] {
      std::ifstream f("/proc/self/status");
      std::string line;
      while (std::getline(f, line))
        if (line.rfind("VmSize:", 0) == 0)
          return static_cast<rlim_t>(std::stoull(line.substr(7))) * 1024;
      return static_cast<rlim_t>(0);
    };
    psim::Machine m;
    int started = 0;
    auto body = [&](psim::RankEnv&) { ++started; };
    rlimit old{};
    ::getrlimit(RLIMIT_AS, &old);
    rlimit low = old;
    low.rlim_cur = vmBytes() + (rlim_t{32} << 20);  // room for 3 stacks
    if (vmBytes() == 0 || ::setrlimit(RLIMIT_AS, &low) != 0) ::_exit(10);
    int code = 11;
    try {
      m.run({64, 1}, body);
    } catch (const parad::Error& e) {
      code = std::string(e.what()).find("fiber stack") != std::string::npos &&
                     started == 0
                 ? 0
                 : 12;
    }
    ::setrlimit(RLIMIT_AS, &old);
    if (code == 0) {
      m.run({64, 1}, body);
      if (started != 64) code = 13;
    }
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(Psim, MpBarrierAlignsClocks) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "bar", {});
  // Rank 0 does extra work before the barrier.
  b.emitIf(b.ieq(b.mpRank(), b.constI(0)), [&] {
    auto acc = b.alloc(b.constI(1), Type::F64);
    b.store(acc, b.constI(0), b.constF(1));
    b.emitFor(b.constI(0), b.constI(5000), [&](ir::Value) {
      auto v = b.load(acc, b.constI(0));
      b.store(acc, b.constI(0), b.sin_(v));
    });
  });
  b.mpBarrier();
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  std::vector<double> ends(2, 0);
  m.run({2, 1}, [&](psim::RankEnv& env) {
    interp::Interpreter it(mod, m);
    it.run(mod.get("bar"), {}, env);
    ends[(std::size_t)env.rank] = env.main.clock;
  });
  EXPECT_NEAR(ends[0], ends[1], 1.0);
  EXPECT_GT(ends[1], 5000 * 12.0);  // rank 1 waited for rank 0's work
}

TEST(Psim, RemoteMessagesCostMore) {
  // Same-socket vs cross-socket pair latency via placement: with 1 thread per
  // rank, ranks 0 and 1 share socket 0; ranks 0 and 32+ would cross. We check
  // the model directly through Machine placement.
  psim::Machine m;
  EXPECT_EQ(m.socketOfCore(0), 0);
  EXPECT_EQ(m.socketOfCore(31), 0);
  EXPECT_EQ(m.socketOfCore(32), 1);
  EXPECT_EQ(m.socketOfCore(63), 1);
}

TEST(Psim, MemoryStatsTracksCacheAllocs) {
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 100, 0, /*isCache=*/true);
  (void)p;
  EXPECT_EQ(m.stats().cacheBytes, 800u);
  EXPECT_EQ(m.stats().allocBytes, 800u);
}

TEST(Psim, FreedObjectTraps) {
  psim::Machine m;
  psim::RtPtr p = m.mem().alloc(Type::F64, 4, 0);
  m.mem().free(p);
  EXPECT_THROW(m.mem().atF(p, 0), parad::Error);
}

TEST(Psim, DeadlockReportNamesBlockedOps) {
  // The deadlock must surface as a VmError whose FailureReport says, per
  // rank, what each one was blocked on.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "dl", {Type::PtrF64});
  auto buf = b.param(0);
  b.mpRecv(buf, b.constI(1), b.irem(b.iadd(b.mpRank(), b.constI(1)), b.mpSize()),
           b.constI(9));
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  auto b0 = makeF64(m, {0});
  auto b1 = makeF64(m, {0});
  psim::RtPtr bufs[2] = {b0, b1};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("dl"), {interp::RtVal::P(bufs[env.rank])}, env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    const psim::FailureReport& fr = e.report();
    EXPECT_EQ(fr.kind, psim::FailureReport::Kind::Deadlock);
    ASSERT_EQ(fr.ranks.size(), 2u);
    EXPECT_EQ(fr.ranks[0].rank, 0);
    EXPECT_EQ(fr.ranks[0].op, "wait");
    EXPECT_EQ(fr.ranks[0].peer, 1);
    EXPECT_EQ(fr.ranks[0].tag, 9);
    EXPECT_EQ(fr.ranks[1].peer, 0);
    std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tag 9"), std::string::npos) << msg;
  }
}

TEST(Psim, BarrierVsAllreduceMismatchIsDiagnosed) {
  // Rank 0 enters a barrier while rank 1 enters an allreduce: a collective
  // mismatch, reported with both collectives named instead of a deadlock.
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)), [&] { b.mpBarrier(); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1}), makeF64(m, {2})};
  psim::RtPtr rp[2] = {makeF64(m, {0}), makeF64(m, {0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::CollectiveMismatch);
    std::string msg = e.what();
    EXPECT_NE(msg.find("collective mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
    EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
  }
}

TEST(Psim, AllreduceCountMismatchIsDiagnosed) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] { b.mpAllreduce(s, r, b.constI(2), ir::ReduceKind::Sum, {}); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1, 1}), makeF64(m, {2, 2})};
  psim::RtPtr rp[2] = {makeF64(m, {0, 0}), makeF64(m, {0, 0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    EXPECT_EQ(e.report().kind, psim::FailureReport::Kind::CollectiveMismatch);
    std::string msg = e.what();
    EXPECT_NE(msg.find("count 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("count 1"), std::string::npos) << msg;
  }
}

TEST(Psim, AllreduceKindMismatchIsDiagnosed) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "mm", {Type::PtrF64, Type::PtrF64});
  auto s = b.param(0), r = b.param(1);
  b.emitIf(
      b.ieq(b.mpRank(), b.constI(0)),
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Sum, {}); },
      [&] { b.mpAllreduce(s, r, b.constI(1), ir::ReduceKind::Max, {}); });
  b.ret();
  b.finish();
  ir::verify(mod);
  psim::Machine m;
  psim::RtPtr sp[2] = {makeF64(m, {1}), makeF64(m, {2})};
  psim::RtPtr rp[2] = {makeF64(m, {0}), makeF64(m, {0})};
  try {
    m.run({2, 1}, [&](psim::RankEnv& env) {
      interp::Interpreter it(mod, m);
      it.run(mod.get("mm"),
             {interp::RtVal::P(sp[env.rank]), interp::RtVal::P(rp[env.rank])},
             env);
    });
    FAIL() << "expected a VmError";
  } catch (const psim::VmError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("sum"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max"), std::string::npos) << msg;
  }
}

TEST(Psim, IrecvRejectsNegativeCountAndOverflow) {
  ir::Module mod;
  ir::FunctionBuilder b(mod, "bad", {Type::PtrF64, Type::I64});
  auto buf = b.param(0);
  auto req = b.mpIrecv(buf, b.param(1), b.constI(0), b.constI(0));
  b.mpWait(req);
  b.ret();
  b.finish();
  ir::verify(mod);
  for (i64 count : {i64(-1), i64(99)}) {
    psim::Machine m;
    auto buf = makeF64(m, {0, 0, 0, 0});
    try {
      m.run({1, 1}, [&](psim::RankEnv& env) {
        interp::Interpreter it(mod, m);
        it.run(mod.get("bad"),
               {interp::RtVal::P(buf), interp::RtVal::I(count)}, env);
      });
      FAIL() << "expected an Error for count " << count;
    } catch (const parad::Error& e) {
      std::string msg = e.what();
      if (count < 0)
        EXPECT_NE(msg.find("negative"), std::string::npos) << msg;
      else
        EXPECT_NE(msg.find("too small"), std::string::npos) << msg;
    }
  }
}
