#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace lehdc::util {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(0, visits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      visits[i].fetch_add(1);
    }
  });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RejectsInvertedRange) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10, 5, [](std::size_t, std::size_t) {}),
      std::invalid_argument);
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.parallel_for(0, 10, [&](std::size_t, std::size_t) {
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [](std::size_t lo, std::size_t) {
                          if (lo == 0) {
                            throw std::runtime_error("worker failure");
                          }
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SumReductionMatchesSerial) {
  ThreadPool pool(3);
  const std::size_t n = 10000;
  std::atomic<long long> total{0};
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      local += static_cast<long long>(i);
    }
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel_for issued from inside a worker must execute inline on that
  // worker instead of enqueueing (enqueue-and-wait can stall the pool once
  // every worker blocks on chunks nobody is free to run).
  ThreadPool pool(4);
  std::atomic<int> outer_count{0};
  std::atomic<int> inner_count{0};
  std::atomic<int> inner_off_thread{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    outer_count.fetch_add(static_cast<int>(hi - lo));
    const auto worker = std::this_thread::get_id();
    pool.parallel_for(0, 16, [&](std::size_t ilo, std::size_t ihi) {
      inner_count.fetch_add(static_cast<int>(ihi - ilo));
      if (std::this_thread::get_id() != worker) {
        inner_off_thread.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(outer_count.load(), 8);
  // One inner sweep of 16 per outer chunk; chunks = min(8, 4) = 4.
  EXPECT_EQ(inner_count.load(), 16 * 4);
  EXPECT_EQ(inner_off_thread.load(), 0);
}

TEST(ThreadPool, DeeplyNestedParallelForCompletes) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t, std::size_t) {
      pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
        leaves.fetch_add(static_cast<int>(hi - lo));
      });
    });
  });
  EXPECT_GT(leaves.load(), 0);
}

TEST(ThreadPool, NestedOnDifferentPoolStillWorks) {
  // Nesting across two distinct pools is not reentrant and must still
  // fan out on the inner pool.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> count{0};
  outer.parallel_for(0, 4, [&](std::size_t, std::size_t) {
    inner.parallel_for(0, 32, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(count.load(), 32 * 2);
}

TEST(ThreadPool, NestedExceptionPropagates) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(0, 6,
                        [&](std::size_t, std::size_t) {
                          pool.parallel_for(0, 6, [](std::size_t lo,
                                                     std::size_t) {
                            if (lo == 0) {
                              throw std::runtime_error("nested failure");
                            }
                          });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, AllChunksThrowingPropagatesExactlyOneError) {
  // When every chunk fails, the caller still sees a single exception (the
  // first recorded one), not a terminate from a second in-flight throw.
  ThreadPool pool(4);
  std::atomic<int> throws{0};
  try {
    pool.parallel_for(0, 64, [&](std::size_t, std::size_t) {
      throws.fetch_add(1);
      throw std::runtime_error("chunk failure");
    });
    FAIL() << "parallel_for should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk failure");
  }
  EXPECT_GT(throws.load(), 0);
}

TEST(ThreadPool, UsableAfterException) {
  // A failed sweep must not poison the pool: error state is per-sweep,
  // and the workers stay alive for subsequent calls.
  ThreadPool pool(3);
  EXPECT_THROW(pool.parallel_for(0, 12,
                                 [](std::size_t, std::size_t) {
                                   throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(0, 48, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 48);
}

TEST(ThreadPool, OffsetRangeCoversExactlyOnce) {
  // Ranges need not start at zero (callers pass row windows).
  ThreadPool pool(4);
  constexpr std::size_t kBegin = 1000;
  constexpr std::size_t kEnd = 2000;
  std::vector<std::atomic<int>> visits(kEnd - kBegin);
  pool.parallel_for(kBegin, kEnd, [&](std::size_t lo, std::size_t hi) {
    ASSERT_GE(lo, kBegin);
    ASSERT_LE(hi, kEnd);
    for (std::size_t i = lo; i < hi; ++i) {
      visits[i - kBegin].fetch_add(1);
    }
  });
  for (const auto& v : visits) {
    EXPECT_EQ(v.load(), 1);
  }
}

TEST(ThreadPool, DestructionWhileIdleIsClean) {
  // Construct/destroy churn: destruction with no queued work must join
  // all workers without hanging or leaking (ASan/TSan modes verify).
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallel_for(0, 16, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    ASSERT_EQ(count.load(), 16);
  }
}

// Fills the stack below the caller with a non-zero pattern, so anything
// still using a frame that parallel_for has returned from finds garbage
// rather than the mutex it left there.
[[gnu::noinline]] void scribble_stack() {
  volatile unsigned char junk[16384];
  for (auto& byte : junk) {
    byte = 0xff;
  }
}

TEST(ThreadPool, FreshOversubscribedPoolsSurviveBackToBackSweeps) {
  // Regression for a completion race: a worker used to decrement the
  // outstanding-chunk count before locking the done mutex, which lives in
  // parallel_for's stack frame. The caller could see zero, return and reuse
  // that frame while the worker was still about to lock and notify it; a
  // worker that then locks scribbled memory hangs or crashes. Fresh pools
  // with more workers than cores and many tiny back-to-back sweeps widen
  // the window; the ctest TIMEOUT turns a hang into a failure.
  constexpr std::size_t kWorkers = 16;
  for (int round = 0; round < 8; ++round) {
    ThreadPool pool(kWorkers);
    for (int call = 0; call < 2000; ++call) {
      std::atomic<std::size_t> count{0};
      pool.parallel_for(0, kWorkers, [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(hi - lo, std::memory_order_relaxed);
      });
      ASSERT_EQ(count.load(), kWorkers);
      scribble_stack();
    }
  }
}

TEST(ThreadPool, ParseWorkerCount) {
  EXPECT_EQ(parse_worker_count(nullptr), 0u);
  EXPECT_EQ(parse_worker_count(""), 0u);
  EXPECT_EQ(parse_worker_count("8"), 8u);
  EXPECT_EQ(parse_worker_count("1"), 1u);
  EXPECT_EQ(parse_worker_count("0"), 0u);
  EXPECT_EQ(parse_worker_count("-3"), 0u);
  EXPECT_EQ(parse_worker_count("abc"), 0u);
  EXPECT_EQ(parse_worker_count("4x"), 0u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, FreeFunctionWrapperWorks) {
  std::atomic<int> count{0};
  parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(7, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 7u);
    EXPECT_EQ(hi, 8u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

}  // namespace
}  // namespace lehdc::util
