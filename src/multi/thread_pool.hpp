// Shared worker pool for the parallel functional execution backend
// (DESIGN.md §5.12).
//
// Functional kernel sweeps are pure CPU work whose wall-clock cost — not sim
// fidelity — bounds the fuzz matrices and benches, so the scheduler splits
// each device sweep into cache-sized block-row chunks and fans them out
// here. The pool is deliberately simple and deterministic-friendly:
//
//  * per-worker deques with work stealing, so uneven chunk costs balance;
//  * fork-join Groups: submit() tags each job with its submission ordinal,
//    wait() blocks until the group drains and rethrows the captured
//    exception with the LOWEST ordinal (several chunks may throw
//    concurrently; picking the first-submitted one keeps error reporting
//    identical to the sequential sweep);
//  * helping waits: a thread blocked in wait() executes queued jobs (of any
//    group) instead of sleeping, so nested fork-join — a deferred kernel
//    body forking chunks while itself running on the pool — cannot
//    deadlock;
//  * stats (jobs executed, steals, idle sleeps) surfaced through
//    SchedulerStats.
//
// Execution ORDER is unspecified; determinism of results is the caller's
// contract (disjoint writes, or private partials merged in chunk order —
// see kernel_exec.hpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/node.hpp"

namespace maps::multi {

class ThreadPool {
public:
  /// Fork-join handle. A Group may be reused for several submit/wait rounds;
  /// it must not be destroyed with jobs pending (wait() first).
  class Group {
  public:
    Group() = default;
    Group(const Group&) = delete;
    Group& operator=(const Group&) = delete;

    bool idle() const {
      return pending_.load(std::memory_order_acquire) == 0;
    }

  private:
    friend class ThreadPool;
    std::atomic<std::uint64_t> pending_{0};
    std::atomic<std::uint64_t> next_ordinal_{0};
    std::uint64_t error_ordinal_ = ~std::uint64_t{0};
    std::exception_ptr error_;      ///< lowest-ordinal capture
    std::mutex error_mutex_;
  };

  struct Stats {
    std::uint64_t executed = 0;   ///< jobs run (by workers and helpers)
    std::uint64_t stolen = 0;     ///< jobs taken from another queue
    std::uint64_t idle_waits = 0; ///< times a thread went to sleep
  };

  /// `parallelism` is the total intended concurrency: the pool spawns
  /// `parallelism - 1` workers and expects callers of wait() to contribute
  /// the remaining thread (helping waits). parallelism == 1 spawns no
  /// workers; submitted jobs run entirely inside wait().
  explicit ThreadPool(unsigned parallelism);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned parallelism() const { return parallelism_; }

  void submit(Group& group, std::function<void()> job);

  /// Blocks until every job submitted to `group` completed, executing queued
  /// jobs meanwhile; then rethrows the group's lowest-ordinal captured
  /// exception, if any (clearing it for the next round).
  void wait(Group& group);

  Stats stats() const;
  void reset_stats();

private:
  struct Job {
    Group* group = nullptr;
    std::uint64_t ordinal = 0;
    std::function<void()> fn;
  };
  struct Queue {
    std::mutex mutex;
    std::deque<Job> jobs;
  };

  /// Pops and runs one queued job, preferring `home`; returns false when
  /// every queue was empty at scan time.
  bool try_run_one(std::size_t home);
  void run_job(Job job);
  bool any_queued() const;
  void worker_loop(std::size_t index);

  unsigned parallelism_ = 1;
  std::vector<std::unique_ptr<Queue>> queues_; ///< one per worker (min 1)
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0}; ///< round-robin submit target

  /// Single sleep channel shared by workers and helping waiters; woken on
  /// every submit and every group-drain. `wake_epoch_` (guarded by
  /// `sleep_mutex_`) makes the wakeups lossless.
  mutable std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::uint64_t wake_epoch_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> idle_waits_{0};
};

namespace detail {

/// Worker-pool-backed sim::FunctionalExecutor. One fork-join Group per
/// PHYSICAL node device holds that device's (at most one) pending kernel
/// body; the event loop joins the device before deferring the next body, so
/// same-device sweeps never overlap. Chunked sweeps running inside a body
/// fork their block-row chunks onto the same pool — the pool's helping
/// waits make the nested fork-join deadlock-free.
class ExecBackend : public sim::FunctionalExecutor {
public:
  ExecBackend(unsigned parallelism, int device_count)
      : pool_(parallelism), groups_(static_cast<std::size_t>(device_count)) {}

  ThreadPool& pool() { return pool_; }

  void run_kernel_body(int device, std::function<void()> body) override {
    pool_.submit(groups_[static_cast<std::size_t>(device)], std::move(body));
  }

  void join_device(int device) override {
    pool_.wait(groups_[static_cast<std::size_t>(device)]);
  }

  void join_all() override {
    std::exception_ptr first;
    for (auto& g : groups_) {
      try {
        pool_.wait(g);
      } catch (...) {
        if (!first) {
          first = std::current_exception();
        }
      }
    }
    if (first) {
      std::rethrow_exception(first);
    }
  }

private:
  ThreadPool pool_;
  std::vector<ThreadPool::Group> groups_;
};

} // namespace detail

} // namespace maps::multi
