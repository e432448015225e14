// Tests for the annotated synchronisation primitives (common/sync.h):
// lock/unlock and TryLock semantics, CondVar wait/signal, MutexLock and
// ReleasableMutexLock scoping, and the debug-build AssertHeld death test.
// The compile-time counterpart — a GUARDED_BY violation failing under
// -Werror=thread-safety — is the CMake try_compile check on
// tests/common/sync_negative_check.cc (clang + SCUBE_THREAD_SAFETY=ON).

#include "common/sync.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace scube {
namespace sync {
namespace {

TEST(MutexTest, LockUnlockRoundTrip) {
  Mutex mu;
  mu.Lock();
  mu.AssertHeld();
  mu.Unlock();
}

TEST(MutexTest, TryLockReportsContention) {
  Mutex mu;
  ASSERT_TRUE(mu.TryLock());
  // A second owner must be refused while we hold it — probe from another
  // thread because std::mutex::try_lock is UB when the caller already
  // owns the lock.
  bool acquired = true;
  std::thread probe([&] { acquired = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(MutexTest, GuardsACounterAcrossThreads) {
  Mutex mu;
  int counter GUARDED_BY(mu) = 0;
  constexpr int kNumThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kNumThreads);
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kNumThreads * kIncrements);
}

TEST(MutexLockTest, ReleasesAtScopeExit) {
  Mutex mu;
  {
    MutexLock lock(&mu);
    mu.AssertHeld();
  }
  // Released: TryLock succeeds again.
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ReleasableMutexLockTest, ExplicitReleaseEndsTheCriticalSection) {
  Mutex mu;
  {
    ReleasableMutexLock lock(&mu);
    mu.AssertHeld();
    lock.Release();
    ASSERT_TRUE(mu.TryLock());  // already released, not at scope exit
    mu.Unlock();
  }  // destructor must not double-unlock
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ReleasableMutexLockTest, DestructorReleasesWhenNotReleased) {
  Mutex mu;
  {
    ReleasableMutexLock lock(&mu);
    mu.AssertHeld();
  }
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, WaitWakesOnSignal) {
  Mutex mu;
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;
  int observed GUARDED_BY(mu) = 0;

  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) cv.Wait(&mu);
    mu.AssertHeld();  // Wait re-acquires before returning
    observed = 1;
  });

  {
    MutexLock lock(&mu);
    ready = true;
  }
  cv.Signal();
  waiter.join();

  MutexLock lock(&mu);
  EXPECT_EQ(observed, 1);
}

TEST(CondVarTest, SignalAllWakesEveryWaiter) {
  Mutex mu;
  CondVar cv;
  bool go GUARDED_BY(mu) = false;
  int awake GUARDED_BY(mu) = 0;
  constexpr int kWaiters = 4;

  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      MutexLock lock(&mu);
      while (!go) cv.Wait(&mu);
      ++awake;
    });
  }
  {
    MutexLock lock(&mu);
    go = true;
  }
  cv.SignalAll();
  for (std::thread& t : waiters) t.join();

  MutexLock lock(&mu);
  EXPECT_EQ(awake, kWaiters);
}

#ifndef NDEBUG
TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  EXPECT_DEATH(mu.AssertHeld(), "CHECK FAILED");
}

TEST(MutexDeathTest, AssertHeldAbortsForAnotherThreadsLock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    // Held, but by the spawning thread — still a discipline violation.
    EXPECT_DEATH(mu.AssertHeld(), "CHECK FAILED");
  });
  other.join();
  mu.Unlock();
}
#endif  // NDEBUG

}  // namespace
}  // namespace sync
}  // namespace scube
