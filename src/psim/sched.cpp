#include "src/psim/sched.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <exception>
#include <queue>
#include <utility>
#include <vector>

#include "src/support/common.h"

#if defined(__SANITIZE_ADDRESS__)
#define PARAD_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PARAD_TSAN_FIBERS 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PARAD_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define PARAD_TSAN_FIBERS 1
#endif
#endif
#ifdef PARAD_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef PARAD_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace parad::psim {

namespace {

// Usable bytes of one fiber stack: the default pthread stack size, so a rank
// nests exactly as deep as it did on a thread of its own (the deep-recursion
// tests run every engine to the default maxCallDepth). Only the pages a rank
// touches are ever committed.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

std::size_t guardBytes() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

// Grows the pool to `nranks` stacks, each mapped with its guard page.
void reserveStacks(std::vector<void*>& stacks, int nranks) {
  stacks.reserve(static_cast<std::size_t>(nranks));
  while (stacks.size() < static_cast<std::size_t>(nranks)) {
    std::size_t bytes = guardBytes() + kStackBytes;
    void* s = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    int e = errno;
    if (s != MAP_FAILED && ::mprotect(s, guardBytes(), PROT_NONE) != 0) {
      e = errno;
      ::munmap(s, bytes);
      s = MAP_FAILED;
    }
    if (s == MAP_FAILED)
      fail("scheduler: cannot map a ", kStackBytes >> 20,
           " MiB fiber stack for rank ", stacks.size(), " of ", nranks,
           ": ", std::strerror(e));
    stacks.push_back(s);
  }
}

}  // namespace

struct CoopScheduler::Impl {
  enum class State { Ready, Running, Blocked, Done };

  struct Fiber {
    ucontext_t ctx;
    bool started = false;
    void* fakeStack = nullptr;  // ASan's fake frames while parked
    void* tsan = nullptr;       // TSan's fiber handle while started
  };

  int current = -1;
  bool failed = false;
  std::vector<State> state;
  std::vector<std::exception_ptr> err;
  // Ready ranks keyed by (frozen virtual clock, rank). A rank's clock only
  // advances while it runs, so the key recorded at the Ready transition stays
  // valid until the rank is popped; the lexicographic min reproduces the
  // historical scan order (smallest clock, ties to the lowest rank index).
  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      ready;
  const std::function<void(int)>* fn = nullptr;
  std::function<double(int)> clockOf;
  FailureBuilder failureBuilder;
  double virtualNsBound = 0;
  Telemetry telemetry;

  // Fibers; empty when the single rank runs inline on the caller's stack.
  std::vector<Fiber> fibers;
  const std::vector<void*>* stacks = nullptr;
  ucontext_t home;  // run()'s own context, which resumes fibers one by one
  void* homeFakeStack = nullptr;
  const void* homeStackBottom = nullptr;  // learned on entry to a fiber
  std::size_t homeStackSize = 0;
  void* homeTsan = nullptr;

  std::exception_ptr buildFailure(FailureReport::Kind kind, int rank) {
    if (failureBuilder) return failureBuilder(kind, rank);
    FailureReport rep;
    rep.kind = kind;
    rep.detail = kind == FailureReport::Kind::Watchdog
                     ? "virtual-time bound exceeded"
                     : "all ranks blocked";
    return std::make_exception_ptr(VmError(std::move(rep)));
  }

  // Marks the run failed and hands every live rank `e` (or, when null, a
  // structured report of `kind`); parked fibers rethrow it from block() when
  // run() resumes them to unwind.
  void failAll(FailureReport::Kind kind, std::exception_ptr e = nullptr) {
    failed = true;
    current = -1;
    for (std::size_t r = 0; r < err.size(); ++r)
      if (!err[r] && state[r] != State::Done)
        err[r] = e ? e : buildFailure(kind, static_cast<int>(r));
  }

  // Picks the next rank to run; called while no rank runs.
  void pickNext() {
    current = -1;
    if (failed) return;
    while (!ready.empty()) {
      auto [c, r] = ready.top();
      if (state[static_cast<std::size_t>(r)] != State::Ready) {
        ready.pop();  // stale entry from an aborted run segment
        continue;
      }
      // Virtual-time watchdog: a livelock (e.g. runaway retransmits) keeps
      // ranks runnable forever while their clocks climb; bound the makespan.
      if (virtualNsBound > 0 && c > virtualNsBound) {
        failAll(FailureReport::Kind::Watchdog);
        return;
      }
      ready.pop();
      current = r;
      state[static_cast<std::size_t>(r)] = State::Running;
      ++telemetry.steps;
      return;
    }
    // No runnable rank: either everyone is done, or we deadlocked.
    for (State s : state)
      if (s != State::Done) {
        failAll(FailureReport::Kind::Deadlock);
        break;
      }
  }

  void runRank(int r) {
    try {
      (*fn)(r);
    } catch (...) {
      err[static_cast<std::size_t>(r)] = std::current_exception();
    }
    state[static_cast<std::size_t>(r)] = State::Done;
  }

  // Context switches, annotated so ASan tracks which stack is live and TSan
  // orders the fibers' accesses (every switch is a synchronizing one).
  void toFiber(int r) {
    Fiber& f = fibers[static_cast<std::size_t>(r)];
    void* base = (*stacks)[static_cast<std::size_t>(r)];
    if (!f.started) {
      f.started = true;
      ::getcontext(&f.ctx);
      f.ctx.uc_stack.ss_sp = static_cast<char*>(base) + guardBytes();
      f.ctx.uc_stack.ss_size = kStackBytes;
      f.ctx.uc_link = nullptr;  // fiberMain never returns
      auto self = reinterpret_cast<std::uintptr_t>(this);
      ::makecontext(&f.ctx, reinterpret_cast<void (*)()>(&fiberMain), 3,
                    static_cast<unsigned>(self),
                    static_cast<unsigned>(self >> 32), r);
#ifdef PARAD_TSAN_FIBERS
      f.tsan = __tsan_create_fiber(0);
#endif
    }
#ifdef PARAD_ASAN_FIBERS
    __sanitizer_start_switch_fiber(&homeFakeStack,
                                   static_cast<char*>(base) + guardBytes(),
                                   kStackBytes);
#endif
#ifdef PARAD_TSAN_FIBERS
    __tsan_switch_to_fiber(f.tsan, 0);
#endif
    ::swapcontext(&home, &f.ctx);
#ifdef PARAD_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(homeFakeStack, nullptr, nullptr);
#endif
#ifdef PARAD_TSAN_FIBERS
    if (state[static_cast<std::size_t>(r)] == State::Done) {
      __tsan_destroy_fiber(f.tsan);
      f.tsan = nullptr;
    }
#endif
  }

  // Parks fiber `r` (or, once it is Done, leaves it for good) and returns to
  // run()'s loop.
  void toHome(int r) {
    Fiber& f = fibers[static_cast<std::size_t>(r)];
#ifdef PARAD_ASAN_FIBERS
    bool exiting = state[static_cast<std::size_t>(r)] == State::Done;
    __sanitizer_start_switch_fiber(exiting ? nullptr : &f.fakeStack,
                                   homeStackBottom, homeStackSize);
#endif
#ifdef PARAD_TSAN_FIBERS
    __tsan_switch_to_fiber(homeTsan, 0);
#endif
    ::swapcontext(&f.ctx, &home);
    arrived(f.fakeStack);
  }

  // First statement on a fiber after every switch into it.
  void arrived(void* fakeStack) {
#ifdef PARAD_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fakeStack, &homeStackBottom,
                                    &homeStackSize);
#else
    (void)fakeStack;
#endif
  }

  static void fiberMain(unsigned lo, unsigned hi, int r) {
    auto* impl = reinterpret_cast<Impl*>(
        (static_cast<std::uintptr_t>(hi) << 32) | lo);
    impl->arrived(nullptr);
    impl->runRank(r);
    impl->toHome(r);  // Done: never resumed
  }
};

CoopScheduler::~CoopScheduler() {
  for (void* s : stacks_) ::munmap(s, guardBytes() + kStackBytes);
}

void CoopScheduler::run(int nranks, const std::function<void(int)>& fn,
                        const std::function<double(int)>& clockOf) {
  PARAD_CHECK(nranks >= 1, "need at least one rank");
  // Every stack is mapped before any rank starts, so a failed mapping
  // throws with no fiber left to unwind.
  if (nranks > 1) reserveStacks(stacks_, nranks);
  Impl impl;
  impl.state.assign(static_cast<std::size_t>(nranks), Impl::State::Ready);
  impl.err.resize(static_cast<std::size_t>(nranks));
  impl.fn = &fn;
  impl.clockOf = clockOf;
  impl.failureBuilder = failureBuilder_;
  impl.virtualNsBound = virtualNsBound_;
  impl.telemetry.wakes.assign(static_cast<std::size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r) impl.ready.emplace(clockOf(r), r);
  impl_ = &impl;

  if (nranks == 1) {
    impl.pickNext();
    if (impl.current == 0) impl.runRank(0);
  } else {
    impl.fibers.resize(static_cast<std::size_t>(nranks));
    impl.stacks = &stacks_;
#ifdef PARAD_TSAN_FIBERS
    impl.homeTsan = __tsan_get_current_fiber();
#endif
    try {
      for (impl.pickNext(); impl.current >= 0; impl.pickNext())
        impl.toFiber(impl.current);
    } catch (...) {
      // Failure reporting itself threw (e.g. out of memory): abort the run
      // so the parked fibers still unwind below.
      impl.failAll(FailureReport::Kind::Deadlock, std::current_exception());
    }
    // Resume every fiber still parked in block(): it rethrows its rank's
    // error and unwinds. A rank that never started is simply never run.
    for (int r = 0; r < nranks; ++r) {
      Impl::Fiber& f = impl.fibers[static_cast<std::size_t>(r)];
      if (f.started && impl.state[static_cast<std::size_t>(r)] !=
                           Impl::State::Done)
        impl.toFiber(r);
      impl.state[static_cast<std::size_t>(r)] = Impl::State::Done;
    }
  }
  impl_ = nullptr;
  telemetry_ = std::move(impl.telemetry);
  // Rethrow the most informative error: a rank that failed for a concrete
  // reason (an app error, a watchdog trip, a collective mismatch) beats the
  // consequent deadlock reports of the ranks it stranded.
  std::exception_ptr first, preferred;
  for (const auto& e : impl.err) {
    if (!e) continue;
    if (!first) first = e;
    if (!preferred) {
      try {
        std::rethrow_exception(e);
      } catch (const VmError& v) {
        if (v.report().kind != FailureReport::Kind::Deadlock) preferred = e;
      } catch (...) {
        preferred = e;
      }
    }
  }
  if (preferred) std::rethrow_exception(preferred);
  if (first) std::rethrow_exception(first);
}

void CoopScheduler::abortAll(std::exception_ptr e) {
  PARAD_CHECK(impl_, "abortAll called outside a run");
  impl_->failAll(FailureReport::Kind::Deadlock, std::move(e));
}

void CoopScheduler::block(int rank) {
  Impl& impl = *impl_;
  PARAD_CHECK(impl.current == rank, "block called by non-running rank");
  impl.state[static_cast<std::size_t>(rank)] = Impl::State::Blocked;
  if (impl.fibers.empty())
    impl.pickNext();  // no other rank can wake the only one: a deadlock
  else
    impl.toHome(rank);
  if (impl.failed && impl.current != rank) {
    impl.state[static_cast<std::size_t>(rank)] = Impl::State::Done;
    std::exception_ptr e = impl.err[static_cast<std::size_t>(rank)];
    if (!e) e = impl.buildFailure(FailureReport::Kind::Deadlock, rank);
    std::rethrow_exception(e);
  }
}

void CoopScheduler::wake(int rank) {
  Impl& impl = *impl_;
  if (impl.failed) return;
  PARAD_CHECK(impl.state[static_cast<std::size_t>(rank)] ==
                  Impl::State::Blocked,
              "wake on a rank that is not blocked");
  impl.state[static_cast<std::size_t>(rank)] = Impl::State::Ready;
  impl.ready.emplace(impl.clockOf(rank), rank);
  ++impl.telemetry.wakes[static_cast<std::size_t>(rank)];
}

}  // namespace parad::psim
