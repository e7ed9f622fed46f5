// A small work-stealing thread pool shared by the parallel mining engine.
//
// Design constraints (see DESIGN.md "Parallel execution"):
//   - Deterministic single-thread fallback: a pool configured with one
//     thread spawns no workers at all; Submit() runs the task inline at the
//     submission point, so `--threads 1` IS the sequential code path.
//   - Caller participation: Wait() and ParallelFor() execute queued tasks
//     on the waiting thread, so nested fan-outs cannot deadlock and the
//     calling thread is one of the N lanes (a pool of N threads means N
//     busy CPUs, not N+1).
//   - Work stealing: each worker owns a deque (LIFO for its own pushes,
//     which keeps nested submissions cache-hot) and steals FIFO from its
//     siblings when dry, which balances skewed first-level projections.
//   - Exceptions propagate: the first exception thrown by any task of a
//     WaitGroup is captured and rethrown by Wait() on the waiting thread.
//
// The global pool is sized by, in priority order: SetGlobalThreads(),
// the GOGREEN_THREADS environment variable, std::thread::hardware_concurrency.

#ifndef GOGREEN_UTIL_THREAD_POOL_H_
#define GOGREEN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace gogreen {

/// Completion tracker for a batch of tasks. Counts submissions and
/// completions and stores the first exception any task threw. A WaitGroup
/// may be reused after a Wait() that returned normally.
///
/// The pending count is guarded by mu_ (not an atomic) so that the zero
/// transition is only observable after the final Done() has released the
/// mutex: once any thread sees Finished() == true, no task is still inside
/// the group's critical section, and the group may be destroyed. This is
/// what lets ParallelFor keep its WaitGroup on the stack.
class WaitGroup {
 public:
  WaitGroup() = default;
  WaitGroup(const WaitGroup&) = delete;
  WaitGroup& operator=(const WaitGroup&) = delete;

  /// True once every submitted task has finished. Acquires the group's
  /// mutex, so a true return also means the last Done() has fully exited.
  bool Finished() const {
    MutexLock lock(mu_);
    return pending_ == 0;
  }

  /// Blocks until every task finished or `timeout` elapsed, returning
  /// Finished() at that moment. Does not execute tasks and does not rethrow
  /// task exceptions — governed drivers that also want to help-execute use
  /// ThreadPool::WaitFor instead.
  bool WaitFor(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (pending_ != 0) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
    }
    return pending_ == 0;
  }

 private:
  friend class ThreadPool;

  void Add(size_t n) {
    MutexLock lock(mu_);
    pending_ += n;
  }

  void Done() {
    MutexLock lock(mu_);
    if (--pending_ == 0) {
      // PR 2 destruction-race invariant, pinned for the analyzer: the
      // zero transition happens strictly under mu_, so it is observable
      // to Finished()/the wait loops only after this final Done() has
      // released the lock — which is what makes a stack-allocated
      // WaitGroup (ParallelFor) safe to destroy right after a true
      // Finished(). If this notify ever moves outside the critical
      // section, the destruction race comes back.
      mu_.AssertHeld();
      cv_.NotifyAll();
    }
  }

  void CaptureException(std::exception_ptr e) {
    MutexLock lock(mu_);
    if (!first_error_) first_error_ = std::move(e);
  }

  /// Blocks until every task finished; does not execute tasks
  /// (ThreadPool::Wait interleaves this with helping).
  void BlockUntilFinished() {
    MutexLock lock(mu_);
    while (pending_ != 0) cv_.Wait(mu_);
  }

  /// Like BlockUntilFinished but gives up at `deadline`; returns Finished().
  bool BlockUntilFinishedUntil(std::chrono::steady_clock::time_point deadline) {
    MutexLock lock(mu_);
    while (pending_ != 0) {
      if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
    }
    return pending_ == 0;
  }

  /// Rethrows the first captured exception, clearing it.
  void RethrowIfError() {
    std::exception_ptr e;
    {
      MutexLock lock(mu_);
      e = std::move(first_error_);
      first_error_ = nullptr;
    }
    if (e) std::rethrow_exception(e);
  }

  mutable Mutex mu_;
  size_t pending_ GUARDED_BY(mu_) = 0;
  CondVar cv_;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
};

class ThreadPool {
 public:
  /// A pool with `threads` lanes of parallelism (>= 1). `threads - 1`
  /// worker threads are spawned; the thread calling Wait()/ParallelFor()
  /// supplies the remaining lane. threads == 1 spawns nothing and runs
  /// every task inline at its submission point.
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured parallelism (>= 1). ParallelFor lane ids are < threads().
  size_t threads() const { return threads_; }

  /// Enqueues `fn`, tracked by `wg`. With a single-thread pool the task
  /// runs inline before Submit returns. Safe to call from inside a task
  /// (nested submission goes to the submitting worker's own deque).
  void Submit(WaitGroup* wg, std::function<void()> fn);

  /// Blocks until every task of `wg` finished, executing queued tasks on
  /// this thread while waiting. Rethrows the first exception any task of
  /// the group threw.
  void Wait(WaitGroup* wg);

  /// Deadline-aware Wait: helps execute queued tasks like Wait(), but gives
  /// up roughly `timeout` after the call (a task already started on this
  /// thread runs to completion first). Returns true — after rethrowing the
  /// group's first task exception, like Wait() — once the group finished;
  /// false on timeout, without consuming any captured exception, so a later
  /// WaitFor/Wait still observes it. Governed runs loop on this to re-poll
  /// their RunContext between waits.
  bool WaitFor(WaitGroup* wg, std::chrono::milliseconds timeout);

  /// Runs fn(lane, i) for every i in [0, n), dynamically load-balanced
  /// across up to threads() lanes; blocks until all iterations finished.
  /// `lane` < threads() identifies the executing lane: no two concurrent
  /// iterations share a lane, so lane-indexed scratch needs no locking.
  /// With one lane, iterations run in order on the caller — the
  /// deterministic sequential fallback. Exceptions propagate (iterations
  /// already started still complete).
  void ParallelFor(size_t n,
                   const std::function<void(size_t lane, size_t i)>& fn);

  /// The process-wide pool used by the parallel miners and compressor.
  /// Created on first use with DefaultThreads() lanes. Returned as a
  /// shared_ptr: callers pin the pool for the duration of a run, so a
  /// concurrent SetGlobalThreads() cannot destroy a pool still in use —
  /// the old pool dies when its last user drops the reference.
  static std::shared_ptr<ThreadPool> Global();

  /// Replaces the global pool with one of `threads` lanes (0 = reset to
  /// DefaultThreads()). Runs already holding a pool from Global() keep
  /// using it; the new size applies to subsequent Global() calls.
  /// Intended for CLI/bench flag handling and tests.
  static void SetGlobalThreads(size_t threads);

  /// Lane count of the global pool without forcing its creation.
  static size_t GlobalThreads();

  /// GOGREEN_THREADS when set to a positive integer, else
  /// hardware_concurrency (at least 1).
  static size_t DefaultThreads();

  /// Calling-thread-scoped parallelism override: while alive, Global() and
  /// GlobalThreads() on *this thread* resolve to a pool of `threads` lanes
  /// instead of the process-wide pool, so concurrent requests with
  /// different thread counts (fpm::MineRequest::threads) never fight over
  /// SetGlobalThreads. Pools are drawn from a small process-wide cache
  /// keyed by lane count, so repeated overrides do not respawn workers.
  /// `threads == 0` is a no-op (the global default stays in effect).
  /// Scopes nest; the previous override is restored on destruction. The
  /// override is only consulted by the requesting thread — pool workers
  /// never resolve Global() — so it composes with the pinned-pool contract
  /// of fpm::MineFirstLevel.
  class ScopedThreads {
   public:
    explicit ScopedThreads(size_t threads);
    ~ScopedThreads();
    ScopedThreads(const ScopedThreads&) = delete;
    ScopedThreads& operator=(const ScopedThreads&) = delete;

   private:
    std::shared_ptr<ThreadPool> previous_;
    bool active_ = false;
  };

 private:
  struct Task {
    std::function<void()> fn;
    WaitGroup* wg;
  };

  struct WorkerQueue {
    Mutex mu;
    std::deque<Task> dq GUARDED_BY(mu);
  };

  /// Lane-exclusivity contract (PR 2): the worker loop holds no lock
  /// while running a task — queue mutexes cover only the push/pop, and
  /// idle_mu_ only the sleep — so a task may re-enter Submit()/Wait()
  /// on its own lane without self-deadlock. REQUIRES(!idle_mu_) pins
  /// the "no lock across RunTask" half the analyzer can name.
  void WorkerLoop(size_t worker) REQUIRES(!idle_mu_);
  void RunTask(Task task) REQUIRES(!idle_mu_);
  bool TryGetTask(Task* out) REQUIRES(!idle_mu_);
  void Push(Task task) REQUIRES(!idle_mu_);

  const size_t threads_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;  // One per worker.
  /// Sleep/wake handshake for idle workers only: the waited-on state
  /// (queued_, stop_) is atomic, so no field names this mutex as its
  /// guard — the lock exists to close the check-then-sleep window.
  // gogreen-lint: allow(orphan-mutex): wait-only mutex pairing idle_cv_
  Mutex idle_mu_;
  CondVar idle_cv_;
  std::atomic<size_t> queued_{0};  // Tasks sitting in some queue.
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace gogreen

#endif  // GOGREEN_UTIL_THREAD_POOL_H_
