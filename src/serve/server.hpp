// Asynchronous micro-batching inference front-end over core::Pipeline.
//
// Producers (socket handlers, the pipe loop, bench client threads) submit
// raw feature vectors and receive a std::future<Response>; one worker
// thread amortizes queued requests into single-tenant micro-batches
// (MicroBatcher flush policy, round-robin across tenants) and dispatches
// each batch through Pipeline::predict_batch — the blocked encode+score
// path — so served predictions are bit-identical to a direct batched call
// on the same inputs. Admission control, per-request deadlines, typed
// shedding and tenant fairness are the batcher's; this class adds the
// thread, the tenant registry indirection (hot reload safe: a batch pins
// its pipeline via shared_ptr) and the obs instrumentation:
//
//   serve.requests / serve.responses / serve.batches        counters
//   serve.rejected_{queue_full,deadline,shutdown,
//                   model_not_found,bad_request}            counters
//   serve.queue_depth                                       gauge
//   serve.batch_size                                        histogram
//   serve.e2e_latency_seconds / serve.dispatch_seconds      histograms
//   serve.tenant.{requests,responses,rejected,queue_depth}.<tenant>
//                                                           per tenant
//
// Two drive modes. The default starts a worker thread that sleeps on a
// condition variable until the next flush is due — production shape. With
// `manual_dispatch` no thread is started and the owner pumps batches
// through run_until_idle(); combined with a FakeClock this makes batch
// composition, shedding and hot-reload interleaving fully deterministic —
// the chaos harness (src/chaos) runs every scenario this way over virtual
// time while still exercising the real admission/dispatch code.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/clock.hpp"
#include "serve/registry.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace lehdc::serve {

class OnlineSidecar;

struct ServerConfig {
  BatcherConfig batcher;
  /// Tenant id used when a request names no tenant.
  std::string default_tenant = "default";
  /// When true the server starts no worker thread; the owner pumps due
  /// batches explicitly with run_until_idle() (deterministic mode).
  bool manual_dispatch = false;
};

class InferenceServer {
 public:
  /// Starts the worker immediately (unless config.manual_dispatch).
  /// `registry` must outlive the server; `clock` == nullptr selects the
  /// system steady clock.
  InferenceServer(ModelRegistry& registry, const ServerConfig& config,
                  Clock* clock = nullptr);

  /// Drains and joins (equivalent to shutdown()).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues one request. The future always becomes ready: with a
  /// prediction, or with a typed Reject (admission failure resolves it
  /// immediately; queued requests resolve at dispatch, deadline expiry or
  /// shutdown drain). `deadline_us` is an absolute Clock time (0 = none).
  std::future<Response> submit(std::vector<float> features,
                               std::uint64_t deadline_us = 0,
                               const std::string& tenant = {},
                               std::uint64_t id = 0);

  /// Blocking convenience wrapper around submit().
  [[nodiscard]] Response predict(std::vector<float> features,
                                 std::uint64_t deadline_us = 0,
                                 const std::string& tenant = {});

  /// Manual-dispatch pump: repeatedly polls the batcher at the current
  /// Clock time and dispatches/sheds everything due, returning the number
  /// of requests resolved. Returns 0 when nothing was due (requests may
  /// still be pending until more time passes or more requests arrive).
  /// Precondition: config.manual_dispatch.
  std::size_t run_until_idle();

  /// Earliest Clock time at which run_until_idle() could have new work
  /// (MicroBatcher::kNever when the queue is empty). Lets a virtual-time
  /// event loop step straight to the next flush or deadline.
  [[nodiscard]] std::uint64_t next_event_us() const;

  /// Stops admission, force-flushes the backlog through the scorer (queued
  /// requests are *served*, not dropped — only ones past their deadline
  /// are shed) and joins the worker. Idempotent.
  void shutdown();

  [[nodiscard]] std::size_t queue_depth() const;
  /// High-water mark of the queue depth since construction; the overload
  /// bench asserts this never exceeds queue_capacity.
  [[nodiscard]] std::size_t peak_queue_depth() const;

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] Clock& clock() noexcept { return *clock_; }
  [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }

  /// Attaches the online-learning sidecar (serve/online.hpp): every served
  /// prediction of an online-enabled tenant is recorded for feedback
  /// correlation just before its promise resolves. The sidecar must
  /// outlive the server; pass nullptr to detach. The pointer is atomic so
  /// attaching races cleanly with a running worker, but attaching before
  /// traffic is the intended shape.
  void attach_online(OnlineSidecar* sidecar) noexcept {
    online_.store(sidecar, std::memory_order_release);
  }
  [[nodiscard]] OnlineSidecar* online() const noexcept {
    return online_.load(std::memory_order_acquire);
  }

 private:
  void worker_loop() LEHDC_EXCLUDES(mutex_);
  /// Scores one single-tenant flushed batch and fulfils its promises.
  void dispatch(const std::string& tenant, std::vector<PendingRequest> batch)
      LEHDC_EXCLUDES(mutex_);
  void reject(PendingRequest&& request, Reject reason);
  /// Polls + dispatches everything currently due. Caller holds no lock.
  std::size_t pump(bool force) LEHDC_EXCLUDES(mutex_);

  ModelRegistry& registry_;
  ServerConfig config_;
  Clock* clock_;
  std::atomic<OnlineSidecar*> online_{nullptr};

  mutable util::Mutex mutex_;
  util::CondVar work_ready_;
  MicroBatcher batcher_ LEHDC_GUARDED_BY(mutex_);
  bool stop_ LEHDC_GUARDED_BY(mutex_) = false;
  std::size_t peak_depth_ LEHDC_GUARDED_BY(mutex_) = 0;
  std::thread worker_;  // set in ctor, joined by shutdown()
};

}  // namespace lehdc::serve
