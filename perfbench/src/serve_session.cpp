// The serve session of the traced run: requests over loopback TCP into the
// in-process server. PAMAP's 75 features make encode cheap, so batching,
// dispatch, framing and the epoll loop dominate the cost of a request.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/online.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport/event_loop.hpp"
#include "serve/transport/socket.hpp"
#include "serve_session.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = lehdc::serve;
namespace transport = lehdc::serve::transport;

constexpr const char* kTenant = "default";
constexpr std::uint64_t kHighRounds = 4;
constexpr std::uint64_t kSatRounds = 5;

/// Server, event loop and listener with lehdc_serve's defaults (max_batch
/// 64, max_wait_us 1000, queue 1024, max_inflight 256, global pool sized
/// to the hardware). One benchmark thread turns the event loop.
class ServeHarness {
 public:
  explicit ServeHarness(lehdc::core::Pipeline pipeline)
      : original_(registry_.add(kTenant, std::move(pipeline))),
        server_(std::make_unique<serve::InferenceServer>(
            registry_, serve::ServerConfig{})),
        loop_(std::make_unique<transport::EventLoop>(
            *server_, transport::EventLoopConfig{})) {
    const int fd = transport::listen_tcp("127.0.0.1", 0, 128);
    port_ = transport::local_port(fd);
    loop_->add_listener(fd);
    thread_ = std::thread([this] {
      try {
        while (!stop_.load(std::memory_order_acquire)) {
          loop_->poll_once(200);
          polls_.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::exception& error) {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        loop_error_ = error.what();
      }
    });
  }

  ~ServeHarness() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) {
      thread_.join();
    }
    loop_.reset();
    server_->shutdown();
    server_->attach_online(nullptr);
    sidecar_.reset();
  }

  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t polls() const noexcept {
    return polls_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] serve::InferenceServer& server() noexcept { return *server_; }
  [[nodiscard]] std::string loop_error() const {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    return loop_error_;
  }

  /// Attaches the online sidecar (count-triggered flips every 64
  /// updates, its default).
  void attach_online(std::uint64_t seed) {
    serve::OnlineSidecarConfig config;
    config.seed = seed;
    sidecar_ = std::make_unique<serve::OnlineSidecar>(registry_, config,
                                                      &server_->clock());
    sidecar_->enable(kTenant);
    server_->attach_online(sidecar_.get());
  }

  /// Detaches and joins the sidecar, then rebinds the model fitted in
  /// setup so later phases serve it again. Returns {flips, updates}.
  std::pair<std::size_t, std::size_t> detach_online() {
    server_->attach_online(nullptr);
    const std::pair<std::size_t, std::size_t> stats{
        sidecar_->flips(kTenant), sidecar_->updates(kTenant)};
    sidecar_.reset();
    registry_.bind(kTenant, original_);
    return stats;
  }

 private:
  serve::ModelRegistry registry_;
  std::shared_ptr<const lehdc::core::Pipeline> original_;
  std::unique_ptr<serve::InferenceServer> server_;
  std::unique_ptr<serve::OnlineSidecar> sidecar_;
  std::unique_ptr<transport::EventLoop> loop_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> polls_{0};
  mutable std::mutex error_mutex_;
  std::string loop_error_;
  std::thread thread_;  // last: started after every member it uses
};

/// Open-loop submit -> future latencies at `rate_rps`, no sockets. The
/// submitting thread sleeps until each due instant; a second thread
/// waits on the futures in submission order.
Samples run_inproc(serve::InferenceServer& server,
                   const std::vector<std::vector<float>>& pool,
                   const std::vector<std::size_t>& order, double rate_rps,
                   std::size_t requests, std::size_t warmup,
                   std::size_t* failed) {
  struct Entry {
    std::future<serve::Response> future;
    double due = 0.0;
    std::size_t index = 0;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Entry> queue;
  bool done = false;
  Samples latency;
  std::size_t misses = 0;
  std::thread waiter([&] {
    for (;;) {
      Entry entry;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        entry = std::move(queue.front());
        queue.pop_front();
      }
      const serve::Response response = entry.future.get();
      const double t = now_s();
      if (!response.ok()) {
        ++misses;
      }
      if (entry.index >= warmup) {
        latency.add(response.ok() ? (t - entry.due) * 1e3 : kMissLatencyMs);
      }
    }
  });
  const auto start = std::chrono::steady_clock::now();
  const double start_s = now_s();
  for (std::size_t i = 0; i < requests; ++i) {
    const double offset = static_cast<double>(i) / rate_rps;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::duration<double>(offset)));
    Entry entry;
    entry.due = start_s + offset;
    entry.index = i;
    entry.future = server.submit(pool[order[i % order.size()]], 0, {},
                                 3'000'000'000ULL + i);
    {
      const std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(entry));
    }
    ready.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_one();
  waiter.join();
  *failed = misses;
  return latency;
}

/// Tallies one TCP phase and checks its replies: no ordering or framing
/// error, nothing unanswered, and (when `expected` is given) every served
/// label equal to the offline predict_batch label of the same sample.
void account(Report& report, const std::string& name, const LoadPlan& plan,
             const LoadResult& result, const std::vector<int>* expected,
             std::size_t class_count) {
  PhaseTally& tally = report.phase(name);
  tally.attempted += result.sent + result.feedback_sent;
  tally.failed += result.rejected + result.missing + result.ack_rejected;
  for (const std::string& error : result.errors) {
    report.check(false, "serve " + name + ": " + error);
  }
  report.check(result.missing == 0,
               "serve " + name + ": " + std::to_string(result.missing) +
                   " requests got no response");
  report.check(result.acks == result.feedback_sent,
               "serve " + name + ": " +
                   std::to_string(result.feedback_sent) +
                   " feedback frames, " + std::to_string(result.acks) +
                   " acks");
  std::size_t mismatches = 0;
  std::size_t out_of_range = 0;
  for (std::size_t i = 0; i < result.labels.size(); ++i) {
    const int label = result.labels[i];
    if (label < 0) {
      continue;
    }
    const std::size_t sample = plan.order[i % plan.order.size()];
    if (expected != nullptr && label != (*expected)[sample]) {
      ++mismatches;
    }
    if (static_cast<std::size_t>(label) >= class_count) {
      ++out_of_range;
    }
  }
  report.check(mismatches == 0,
               "serve " + name + ": " + std::to_string(mismatches) +
                   " served labels differ from offline predict_batch");
  report.check(out_of_range == 0,
               "serve " + name + ": labels out of range");
}

}  // namespace

ServeSession run_serve_session(const Options& options, Report& report,
                               double scale) {
  ServeSession session;
  lehdc::data::TrainTestSplit split;
  std::vector<int> expected;
  std::unique_ptr<ServeHarness> harness;
  // Setup: data, fit of the served model, offline reference labels and
  // server start.
  {
    split = make_pamap(options.seed, kPamapTrain, kPamapPool);
    lehdc::core::Pipeline pipeline(lehdc_config(options.seed, kPamapEpochs));
    {
      const OpMarker op("setup_fit", 120.0);
      (void)pipeline.fit(split.train);
    }
    expected = pipeline.predict_batch(split.test);
    harness = std::make_unique<ServeHarness>(std::move(pipeline));
  }
  const std::size_t class_count = split.test.class_count();

  std::vector<std::vector<float>> pool;
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    const auto row = split.test.sample(i);
    pool.emplace_back(row.begin(), row.end());
  }
  const std::vector<int> true_labels(split.test.labels().begin(),
                                     split.test.labels().end());
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  lehdc::util::Rng rng(options.seed);
  rng.shuffle(order.begin(), order.end());

  std::vector<int> checked = expected;
  if (options.corrupt_check) {
    checked[order[0]] = (checked[order[0]] + 1) % static_cast<int>(class_count);
  }

  LoadPlan plan;
  plan.port = harness->port();
  plan.pool = &pool;
  // Feedback reports every class k as k + 1 (mod K): a drifted labelling,
  // the case the online sidecar exists for. The live model then loses the
  // holdout gate to the shadow learner, so count-triggered blue-green
  // flips really happen during the high phase.
  std::vector<int> drifted(true_labels.size());
  for (std::size_t i = 0; i < drifted.size(); ++i) {
    drifted[i] = (true_labels[i] + 1) % static_cast<int>(class_count);
  }
  plan.feedback_labels = &drifted;
  plan.order = order;
  const std::uint64_t polls_before = harness->polls();

  // A fresh connection starts in the kernel's quick-ACK mode and falls
  // into delayed ACKs after 0.5-5 s at this rate; only then does the
  // server's missing TCP_NODELAY show (p50 ~2 ms before, ~8 ms after).
  // The warm-up outlasts the transient so the phase measures the steady
  // state.
  plan.rate_rps = 500.0;
  plan.warmup = 3000;
  plan.requests = plan.warmup + scaled_count(2000, scale, 1200);
  plan.id_base = 1;
  {
    const OpMarker op("low", 120.0);
    const lehdc::obs::TraceSpan span("perfbench.serve.low", "perfbench");
    session.low = run_load(plan);
  }
  account(report, "low", plan, session.low, &checked, class_count);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < session.low.labels.size(); ++i) {
    hits += session.low.labels[i] == true_labels[order[i % order.size()]];
  }
  session.accuracy = static_cast<double>(hits) /
                     static_cast<double>(session.low.labels.size());

  // The high and sat phases run in rounds, each on fresh connections, and
  // report the median of the per-round figures: a stall that hits one
  // round (a VM preemption, one connection's TCP state) moves that round
  // only.
  const auto merge = [&](const LoadResult& round) {
    for (const double v : round.ack_ms.values()) {
      session.ack_ms.add(v);
    }
    for (const double v : round.lag_ms.values()) {
      session.lag_ms.add(v);
    }
    session.responses += round.ok + round.rejected + round.acks;
  };
  for (const double v : session.low.lag_ms.values()) {
    session.lag_ms.add(v);
  }
  session.responses += session.low.ok + session.low.rejected;

  lehdc::obs::Registry::global().reset();
  harness->attach_online(options.seed);
  plan.rate_rps = 4000.0;
  plan.warmup = 500;
  plan.requests = plan.warmup + scaled_count(3000, scale, 1000);
  plan.feedback_every = 8;
  Samples high_p50;
  Samples high_p99;
  for (std::uint64_t round = 0; round < kHighRounds; ++round) {
    plan.id_base = 1'000'000'000ULL + round * 10'000'000ULL;
    LoadResult result;
    {
      const OpMarker op("high", 120.0);
      const lehdc::obs::TraceSpan span("perfbench.serve.high", "perfbench");
      result = run_load(plan);
    }
    account(report, "high", plan, result, nullptr, class_count);
    high_p50.add(result.latency_ms.quantile(0.5));
    high_p99.add(result.latency_ms.quantile(0.99));
    session.high_measured += result.latency_ms.size();
    merge(result);
  }
  session.high_p50_ms = high_p50.median();
  session.high_p99_ms = high_p99.median();
  {
    auto& metrics = lehdc::obs::Registry::global();
    const auto batch = metrics.histogram("serve.batch_size").snapshot();
    const auto dispatch = metrics.histogram("serve.dispatch_seconds").snapshot();
    session.batch_size_mean =
        batch.count > 0 ? batch.sum / static_cast<double>(batch.count) : 0.0;
    session.dispatch_p50_ms = dispatch.p50 * 1e3;
  }
  std::tie(session.flips, session.updates) = harness->detach_online();

  plan.closed_loop = true;
  plan.window = 256;
  plan.warmup = 2000;
  plan.requests = plan.warmup + scaled_count(8000, scale, 3000);
  plan.feedback_every = 0;
  Samples sat_rps;
  for (std::uint64_t round = 0; round < kSatRounds; ++round) {
    plan.id_base = 2'000'000'000ULL + round * 10'000'000ULL;
    LoadResult result;
    {
      const OpMarker op("sat", 120.0);
      const lehdc::obs::TraceSpan span("perfbench.serve.sat", "perfbench");
      result = run_load(plan);
    }
    account(report, "sat", plan, result, &checked, class_count);
    sat_rps.add(result.rps);
    session.sat_measured += plan.requests - plan.warmup;
    merge(result);
  }
  session.sat_rps = sat_rps.median();
  session.polls = harness->polls() - polls_before;

  // In-process latency at the high rate: the same server without sockets.
  const std::size_t inproc_requests = 2000 + scaled_count(8000, scale, 4000);
  std::size_t inproc_failed = 0;
  {
    const OpMarker op("inproc", 120.0);
    const lehdc::obs::TraceSpan span("perfbench.serve.inproc", "perfbench");
    session.inproc_ms = run_inproc(harness->server(), pool, order, 4000.0,
                                   inproc_requests, 2000, &inproc_failed);
  }
  PhaseTally& tally = report.phase("inproc");
  tally.attempted += inproc_requests;
  tally.failed += inproc_failed;
  session.peak_queue_depth = harness->server().peak_queue_depth();
  const std::string loop_error = harness->loop_error();
  report.check(loop_error.empty(), "serve: event loop failed: " +
                                       loop_error);
  return session;
}

}  // namespace perfbench
