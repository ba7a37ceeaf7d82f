#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>

#include "util/check.hpp"

namespace lehdc::util {

namespace {

// The pool whose worker_loop is running on this thread, if any. Used to
// detect nested parallel_for calls: a worker that blocks waiting for chunks
// it enqueued on its own pool can deadlock once every worker does the same,
// so nested calls run inline instead.
thread_local const ThreadPool* current_worker_pool = nullptr;

// Global-pool sizing request; read once when the global pool is built.
std::atomic<std::size_t> global_workers_request{0};
std::atomic<bool> global_pool_built{false};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  // With a single worker all work runs inline on the calling thread; no
  // threads are spawned at all.
  if (workers == 1) {
    return;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      // Explicit wait loop (not a predicate lambda): the guarded reads of
      // stopping_/tasks_ must happen in this annotated scope, where the
      // analysis can see the lock is held.
      while (!stopping_ && tasks_.empty()) {
        task_ready_.wait(lock);
      }
      if (stopping_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  expects(begin <= end, "parallel_for: begin must not exceed end");
  if (begin == end) {
    return;
  }
  const std::size_t n = end - begin;
  const std::size_t workers = worker_count();
  // Nested use: a worker enqueueing onto its own pool and then blocking
  // would occupy a worker slot while waiting — with every slot doing the
  // same the pool stalls. Run the nested range inline instead.
  if (workers == 1 || n == 1 || current_worker_pool == this) {
    fn(begin, end);
    return;
  }

  const std::size_t chunks = std::min(n, workers);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  std::atomic<std::size_t> remaining{chunks};
  std::exception_ptr first_error;
  Mutex error_mutex;
  Mutex done_mutex;
  CondVar done;

  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    auto task = [&, lo, hi] {
      try {
        fn(lo, hi);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
      // done_mutex, done and remaining live on the caller's stack. The
      // decrement must happen under done_mutex: decremented outside it, the
      // caller could observe zero, return and reuse the frame while this
      // worker was still about to lock and notify. Under the lock, the
      // caller cannot re-check `remaining` until this worker unlocks, which
      // is its last touch of the frame.
      const MutexLock lock(done_mutex);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done.notify_one();
      }
    };
    {
      const MutexLock lock(mutex_);
      tasks_.emplace(std::move(task));
    }
    task_ready_.notify_one();
  }

  UniqueLock lock(done_mutex);
  while (remaining.load(std::memory_order_acquire) != 0) {
    done.wait(lock);
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool = [] {
    global_pool_built.store(true, std::memory_order_release);
    std::size_t workers = global_workers_request.load();
    if (workers == 0) {
      workers = parse_worker_count(std::getenv("LEHDC_THREADS"));
    }
    return ThreadPool(workers);
  }();
  return pool;
}

bool ThreadPool::configure_global(std::size_t workers) {
  if (global_pool_built.load(std::memory_order_acquire)) {
    return false;
  }
  global_workers_request.store(workers);
  return true;
}

std::size_t parse_worker_count(const char* text) noexcept {
  if (text == nullptr || *text == '\0') {
    return 0;
  }
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value <= 0) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace lehdc::util
