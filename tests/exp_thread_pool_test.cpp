#include "exp/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

namespace mcs::exp {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, SingleThreadStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  for (std::size_t i = 0; i < hits.size(); ++i)
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  pool.wait_idle();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an error.
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, TasksMaySubmitNestedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) {
    pool.submit([&pool, &counter] {
      for (int j = 0; j < 5; ++j)
        pool.submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, WorkIsActuallyDistributed) {
  // Every task runs on one of the pool's own workers.
  ThreadPool pool(4);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  for (int i = 0; i < 400; ++i)
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
    });
  pool.wait_idle();
  EXPECT_GE(seen.size(), 1u);
  EXPECT_LE(seen.size(), 4u);
  EXPECT_EQ(seen.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
  ThreadPool pool(0);  // 0 selects the default
  EXPECT_EQ(pool.thread_count(), ThreadPool::default_thread_count());
}

}  // namespace
}  // namespace mcs::exp
