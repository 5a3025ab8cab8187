// Fixed-size worker pool that supplies the helpers of the morsel-driven
// query scheduler (§6.1 of the paper; util/morsel_dispatch.h).

#ifndef POSEIDON_UTIL_THREAD_POOL_H_
#define POSEIDON_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace poseidon {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. A pool without workers is legal (a
  /// query engine whose caller runs every morsel) but must not be given
  /// tasks.
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs every task still queued, then joins all workers.
  ~ThreadPool();

  /// Enqueues a task; requires num_threads() > 0. Tasks must not block
  /// indefinitely on other tasks.
  void Submit(std::function<void()> task);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool shutdown_ = false;                    // guarded by mu_
  std::vector<std::thread> workers_;
};

}  // namespace poseidon

#endif  // POSEIDON_UTIL_THREAD_POOL_H_
