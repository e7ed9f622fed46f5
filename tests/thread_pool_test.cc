// Property and stress tests for the work-stealing ThreadPool: inline
// single-thread fallback, ParallelFor coverage and lane exclusivity, task
// ordering independence, nested submission, exception propagation, and
// wait-group completion under contention.

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/run_context.h"
#include "util/thread_annotations.h"

namespace gogreen {
namespace {

using std::chrono::milliseconds;

/// A manually released gate that tasks can park on, to hold pool workers
/// busy while a test probes waiting behavior.
class Gate {
 public:
  void Open() {
    {
      MutexLock lock(mu_);
      open_ = true;
    }
    cv_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(mu_);
    while (!open_) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ GUARDED_BY(mu_) = false;
};

TEST(WaitGroupTest, StartsFinished) {
  WaitGroup wg;
  EXPECT_TRUE(wg.Finished());
}

TEST(ThreadPoolTest, SingleThreadRunsInlineAtSubmission) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  WaitGroup wg;
  std::vector<int> order;
  pool.Submit(&wg, [&] { order.push_back(1); });
  // No workers exist: the task already ran, before Submit returned.
  EXPECT_EQ(order.size(), 1u);
  EXPECT_TRUE(wg.Finished());
  pool.Submit(&wg, [&] { order.push_back(2); });
  pool.Wait(&wg);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ThreadPoolTest, SingleThreadParallelForIsSequential) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.ParallelFor(10, [&](size_t lane, size_t i) {
    EXPECT_EQ(lane, 0u);
    order.push_back(i);
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&](size_t lane, size_t i) {
      EXPECT_LT(lane, threads);
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForLanesAreExclusive) {
  // No two concurrent iterations may share a lane id — that is the contract
  // that lets miners keep lock-free lane-local scratch.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> in_lane(4);
  std::atomic<bool> violated{false};
  pool.ParallelFor(2000, [&](size_t lane, size_t) {
    if (in_lane[lane].fetch_add(1, std::memory_order_acq_rel) != 0) {
      violated.store(true, std::memory_order_relaxed);
    }
    in_lane[lane].fetch_sub(1, std::memory_order_acq_rel);
  });
  EXPECT_FALSE(violated.load());
}

TEST(ThreadPoolTest, ResultIndependentOfTaskOrdering) {
  // Tasks complete in a scheduler-dependent order, but the set of effects
  // must be exactly the submitted set.
  ThreadPool pool(4);
  Mutex mu;
  std::vector<int> done;  // Written under mu by tasks; read after Wait().
  WaitGroup wg;
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    pool.Submit(&wg, [&, i] {
      MutexLock lock(mu);
      done.push_back(i);
    });
  }
  pool.Wait(&wg);
  std::sort(done.begin(), done.end());
  std::vector<int> expected(kN);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(done, expected);
}

TEST(ThreadPoolTest, NestedSubmitCompletes) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  WaitGroup wg;
  for (int i = 0; i < 16; ++i) {
    pool.Submit(&wg, [&pool, &wg, &count] {
      count.fetch_add(1, std::memory_order_relaxed);
      for (int j = 0; j < 8; ++j) {
        pool.Submit(&wg, [&count] {
          count.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  pool.Wait(&wg);
  EXPECT_EQ(count.load(), 16 + 16 * 8);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // An outer iteration fanning out an inner loop must not deadlock even when
  // every worker is occupied by outer iterations: waiting threads help.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t, size_t) {
    pool.ParallelFor(8, [&](size_t, size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SubmitExceptionPropagatesToWait) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    WaitGroup wg;
    std::atomic<int> survivors{0};
    for (int i = 0; i < 32; ++i) {
      pool.Submit(&wg, [&survivors, i] {
        if (i == 7) throw std::runtime_error("boom");
        survivors.fetch_add(1, std::memory_order_relaxed);
      });
    }
    EXPECT_THROW(pool.Wait(&wg), std::runtime_error);
    // All non-throwing tasks still ran to completion.
    EXPECT_EQ(survivors.load(), 31);
    // The group is reusable after the error was consumed.
    pool.Submit(&wg, [&survivors] {
      survivors.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_NO_THROW(pool.Wait(&wg));
    EXPECT_EQ(survivors.load(), 32);
  }
}

TEST(ThreadPoolTest, ParallelForExceptionPropagates) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.ParallelFor(100,
                                  [](size_t, size_t i) {
                                    if (i == 42) {
                                      throw std::runtime_error("boom");
                                    }
                                  }),
                 std::runtime_error);
  }
}

TEST(ThreadPoolTest, WaitGroupCompletionUnderContention) {
  // Many rounds of short tasks from several submitting groups: every Wait
  // must observe its full group, never a partial one.
  ThreadPool pool(8);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> a{0};
    std::atomic<int> b{0};
    WaitGroup wga;
    WaitGroup wgb;
    for (int i = 0; i < 64; ++i) {
      pool.Submit(&wga, [&a] { a.fetch_add(1, std::memory_order_relaxed); });
      pool.Submit(&wgb, [&b] { b.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.Wait(&wga);
    EXPECT_EQ(a.load(), 64);
    pool.Wait(&wgb);
    EXPECT_EQ(b.load(), 64);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  WaitGroup wg;
  {
    ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) {
      pool.Submit(&wg, [&count] {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  // Destruction joins workers and runs anything still queued.
  EXPECT_EQ(count.load(), 200);
  EXPECT_TRUE(wg.Finished());
}

TEST(ThreadPoolTest, StackWaitGroupSafeToDestroyAfterWait) {
  // Regression: Wait() must not return until the final Done() has fully
  // left the WaitGroup's critical section, because callers (ParallelFor
  // included) destroy stack-allocated groups the moment Wait returns.
  // Many rounds of short tasks stress the window where a worker finishing
  // the last task races the waiter's exit and the group's destruction —
  // the use-after-free an atomics-only pending count allowed.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kRounds = 5000;
  constexpr int kTasksPerRound = 8;
  for (int round = 0; round < kRounds; ++round) {
    WaitGroup wg;
    for (int t = 0; t < kTasksPerRound; ++t) {
      pool.Submit(&wg, [&count] {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.Wait(&wg);
  }
  EXPECT_EQ(count.load(), kRounds * kTasksPerRound);
}

TEST(ThreadPoolTest, PinnedGlobalPoolSurvivesReconfiguration) {
  // Regression: a run holds the shared_ptr from Global() across its whole
  // fan-out, so SetGlobalThreads() must not destroy (or resize lane ids
  // out from under) the pool that run is still using.
  const size_t original = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(4);
  const std::shared_ptr<ThreadPool> pinned = ThreadPool::Global();
  ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(pinned->threads(), 4u);
  EXPECT_EQ(ThreadPool::Global()->threads(), 2u);
  std::atomic<int> count{0};
  pinned->ParallelFor(100, [&](size_t lane, size_t) {
    EXPECT_LT(lane, pinned->threads());
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::SetGlobalThreads(original);
}

TEST(ThreadPoolTest, SetGlobalThreadsControlsGlobalPool) {
  const size_t original = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3u);
  EXPECT_EQ(ThreadPool::Global()->threads(), 3u);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 1u);
  // 0 resets to the environment/hardware default.
  ThreadPool::SetGlobalThreads(0);
  EXPECT_EQ(ThreadPool::GlobalThreads(), ThreadPool::DefaultThreads());
  ThreadPool::SetGlobalThreads(original);
}

TEST(ThreadPoolTest, ZeroIterationParallelForIsANoop) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t, size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, WaitForReturnsTrueOnFinishedGroup) {
  ThreadPool pool(2);
  WaitGroup wg;
  EXPECT_TRUE(pool.WaitFor(&wg, milliseconds(0)));  // Empty group.
  std::atomic<int> ran{0};
  pool.Submit(&wg, [&] { ran.fetch_add(1); });
  EXPECT_TRUE(pool.WaitFor(&wg, milliseconds(1000)));
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolTest, WaitForTimesOutWhileTaskStillRuns) {
  ThreadPool pool(2);
  Gate gate;
  std::atomic<bool> started{false};
  WaitGroup wg;
  pool.Submit(&wg, [&] {
    started.store(true);
    gate.Wait();
  });
  // Let the worker take the task so WaitFor cannot steal-and-block on it.
  while (!started.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(pool.WaitFor(&wg, milliseconds(20)));
  EXPECT_FALSE(wg.Finished());
  gate.Open();
  pool.Wait(&wg);
  EXPECT_TRUE(wg.Finished());
}

TEST(ThreadPoolTest, WaitForHelpsExecuteWhenWorkersAreBusy) {
  // Park the pool's only worker on a gate, then queue more tasks: the
  // waiting thread must drain them itself rather than deadlocking on the
  // parked worker.
  ThreadPool pool(2);  // threads() counts the caller: one real worker.
  Gate gate;
  std::atomic<bool> worker_parked{false};
  WaitGroup parked;
  pool.Submit(&parked, [&] {
    worker_parked.store(true);
    gate.Wait();
  });
  // Wait until the worker actually holds the gate task, so the caller's
  // help-execute loop below cannot steal it and park itself.
  while (!worker_parked.load()) {
    std::this_thread::yield();
  }
  WaitGroup wg;
  std::atomic<int> drained{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit(&wg, [&drained] { drained.fetch_add(1); });
  }
  // Only the caller can make progress here.
  while (!pool.WaitFor(&wg, milliseconds(50))) {
  }
  EXPECT_EQ(drained.load(), 16);
  gate.Open();
  pool.Wait(&parked);
}

TEST(ThreadPoolTest, WaitForDoesNotConsumeExceptionOnTimeout) {
  ThreadPool pool(2);
  Gate gate;
  std::atomic<bool> started{false};
  WaitGroup wg;
  pool.Submit(&wg, [&] {
    started.store(true);
    gate.Wait();
    throw std::runtime_error("task failed");
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(pool.WaitFor(&wg, milliseconds(10)));
  gate.Open();
  // The timeout above must not have swallowed the pending exception: the
  // successful wait still rethrows it.
  EXPECT_THROW(
      {
        while (!pool.WaitFor(&wg, milliseconds(200))) {
        }
      },
      std::runtime_error);
  EXPECT_TRUE(wg.Finished());
}

TEST(ThreadPoolTest, CancelledGovernedWaitDrainsPinnedPoolWithoutLeaks) {
  // The governed fan-out pattern (fpm::MineFirstLevel with a RunContext):
  // tasks poll the context and bail early once it is cancelled; the fan-out
  // loops on WaitFor + PollNow. A cancelled run must account for every
  // queued task (none leak into later rounds) and leave the pinned pool
  // functional.
  const size_t original = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(2);
  const std::shared_ptr<ThreadPool> pool = ThreadPool::Global();

  RunContext ctx;
  Gate gate;
  std::atomic<int> entered{0};
  std::atomic<int> skipped{0};
  constexpr int kTasks = 64;
  WaitGroup wg;
  for (int i = 0; i < kTasks; ++i) {
    pool->Submit(&wg, [&, i] {
      if (i == 0) gate.Wait();  // Hold one lane until cancel lands.
      if (ctx.ShouldStop()) {
        skipped.fetch_add(1);
        return;
      }
      entered.fetch_add(1);
    });
  }
  ctx.RequestCancel();
  gate.Open();
  int spins = 0;
  while (!pool->WaitFor(&wg, milliseconds(5))) {
    ctx.PollNow();
    ASSERT_LT(++spins, 2000) << "governed wait did not drain";
  }
  EXPECT_EQ(entered.load() + skipped.load(), kTasks);
  EXPECT_GT(skipped.load(), 0);

  // No queued task leaked: a fresh round on the same pinned pool runs
  // exactly its own tasks.
  std::atomic<int> fresh{0};
  WaitGroup wg2;
  for (int i = 0; i < 8; ++i) {
    pool->Submit(&wg2, [&fresh] { fresh.fetch_add(1); });
  }
  pool->Wait(&wg2);
  EXPECT_EQ(fresh.load(), 8);
  ThreadPool::SetGlobalThreads(original);
}

}  // namespace
}  // namespace gogreen
