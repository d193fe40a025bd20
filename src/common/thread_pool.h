// A deterministic, work-stealing-free thread pool.
//
// Hyper-M's hot loops (per-peer wavelet decomposition, per-(peer, layer)
// k-means, per-layer overlay range queries) are embarrassingly parallel:
// every task writes only its own pre-sized output slot. The pool therefore
// needs no futures, no per-task queues and no stealing — one shared atomic
// cursor hands out indices, and determinism falls out of the task structure
// (disjoint writes + an ordered drain on the calling thread) rather than
// from the scheduler.
//
// Contract for ParallelFor tasks (DESIGN.md §8):
//   * tasks are pure: they read shared inputs and write only state no other
//     task touches (their own slot). They record nothing — no metrics,
//     spans, flight-recorder events or traffic; those sinks are not
//     thread-safe, and the caller records at its ordered drain;
//   * tasks must not throw (the codebase reports errors via Status values
//     stored into the task's slot).
//
// `ThreadPool(1)` spawns no workers at all and runs every ParallelFor body
// inline on the calling thread, in index order — exactly the sequential
// code path, which is the escape hatch `HyperMOptions::num_threads = 1`
// exposes.

#ifndef HYPERM_COMMON_THREAD_POOL_H_
#define HYPERM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hyperm {

/// Fixed-size pool executing index-space fan-outs. The calling thread
/// participates in the work, so `num_threads` is the total concurrency
/// (a pool of 1 is a plain loop). Workers are started once and parked
/// between calls; ParallelFor blocks until every index has run.
class ThreadPool {
 public:
  /// Creates a pool of `num_threads` total lanes (clamped to >= 1;
  /// `num_threads - 1` background workers are spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the calling thread).
  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency(), floored at 1 (the value is 0 on
  /// platforms that cannot report it).
  static int DefaultNumThreads();

  /// Runs `fn(i)` for every i in [0, n), distributing indices over all
  /// lanes, and returns once all have completed. Results are deterministic
  /// iff tasks honour the disjoint-writes contract above; the *execution*
  /// order is unspecified. Must not be called concurrently with itself and
  /// must not be nested inside a task.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  void RunTasks();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;   // workers wait here for a generation bump
  std::condition_variable cv_done_;   // caller waits here for workers_working_ == 0
  uint64_t generation_ = 0;           // bumped once per ParallelFor (guarded by mu_)
  int workers_working_ = 0;           // workers not yet done with this generation
  bool stop_ = false;

  // Current job; written under mu_ before the generation bump, read by
  // workers after they observe the bump (release/acquire via mu_).
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t n_ = 0;
  std::atomic<size_t> next_{0};
};

}  // namespace hyperm

#endif  // HYPERM_COMMON_THREAD_POOL_H_
