#include "exp/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace mcs::exp {

namespace {

// Which pool (if any) the current thread is a worker of, and its index.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_index = 0;

}  // namespace

int ThreadPool::default_thread_count() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int ThreadPool::worker_index() const {
  return tls_pool == this ? tls_index : -1;
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads < 1 ? default_thread_count() : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  try {
    wait_idle();
  } catch (...) {
    // A task failed and nobody collected the error; dropping it is the
    // only option left in a destructor.
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::worker_loop(int self) {
  tls_pool = this;
  tls_index = self;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // release the task's captures before reporting done
    std::lock_guard<std::mutex> lock(mutex_);
    if (error && !first_error_) first_error_ = error;
    if (--pending_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace mcs::exp
