// thread_pool.hpp — a small fixed-size worker pool with a chunked
// parallel_for, used to fan design-space searches out across cores.
//
// Design constraints (see docs/search_pipeline.md):
//   * deterministic results: parallel_for hands out index ranges, callers
//     write into pre-sized slots, so the output never depends on worker
//     interleaving — only wall-clock does.
//   * exception safety: the first exception thrown by any chunk is captured
//     and rethrown on the calling thread once every worker has drained; the
//     pool stays usable afterwards.
//   * a pool of size 1 still routes work through its worker thread, so the
//     single-threaded path exercises the same code under TSan as N threads.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace codesign {

class ThreadPool {
 public:
  /// Spawn `threads` workers; 0 resolves to hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Invoke fn(i) for every i in [0, n), partitioned into contiguous chunks
  /// of ~grain indices spread across the workers. Blocks until all chunks
  /// drained. If any invocation throws, the first exception (in completion
  /// order) is rethrown here; chunks that have not started when the failure
  /// is recorded observe a fast-fail flag and skip their bodies, so a
  /// failing call does not execute the full remaining index range.
  /// grain == 0 picks a chunk size targeting ~4 chunks per worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

  /// Chunk-level variant of parallel_for: fn(begin, end) is invoked once
  /// per contiguous chunk instead of once per index, so the body can set up
  /// per-chunk state (a reusable workspace, a batch buffer) and amortize it
  /// across the chunk's indices. Same chunking, blocking, fast-fail, and
  /// first-exception-rethrow semantics as parallel_for — which is itself
  /// implemented on top of this.
  void parallel_for_ranges(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 0);

  /// Enqueue one independent task and return immediately (the serve worker
  /// pool's entry point, vs parallel_for's blocking fan-out). Tasks are
  /// expected to handle their own errors; an exception that does escape is
  /// swallowed — logged and counted in threadpool.task_errors — so one bad
  /// task cannot take down the pool's worker thread. The destructor drains
  /// every queued task before joining, so submitted work always runs.
  void submit(std::function<void()> task);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace codesign
