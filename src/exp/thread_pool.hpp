// Thread pool for the experiment-orchestration subsystem: one
// mutex-guarded FIFO queue shared by every worker. The sweep submits all
// of its tasks from the calling thread and each task is a whole model
// group, simulation replication or saturation search, so queue contention
// is negligible next to the work.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mcs::exp {

class ThreadPool {
 public:
  /// `threads` < 1 selects default_thread_count(). Workers start
  /// immediately and run until destruction.
  explicit ThreadPool(int threads = 0);

  /// Drains remaining work (wait_idle), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int thread_count() const {
    return static_cast<int>(workers_.size());
  }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static int default_thread_count();

  /// Index of the calling thread among this pool's workers, or -1 when
  /// called from a thread the pool does not own (telemetry: lets a task
  /// stamp which worker ran it without any synchronization).
  [[nodiscard]] int worker_index() const;

  /// Enqueue one task at the back of the queue. Thread-safe; may be
  /// called from inside a task.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. The first exception
  /// thrown by any task is captured and rethrown here (subsequent ones
  /// are dropped). Must not be called from inside a task.
  void wait_idle();

 private:
  void worker_loop(int self);

  std::mutex mutex_;  ///< guards every member below it
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t pending_ = 0;  ///< submitted but not yet finished
  bool stopping_ = false;
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;  ///< last: joined before the above die
};

}  // namespace mcs::exp
