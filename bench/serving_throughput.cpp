// Serving throughput vs the direct batch path (PR 4), plus the socket
// front-end under open-loop load (PR 7).
//
// Four measurements on one fitted pipeline:
//   direct       — Pipeline::predict_batch over a full query dataset, no
//                  server in the way: the upper bound the server is judged
//                  against (the DESIGN.md budget is ≥85% of this at
//                  saturation).
//   saturated    — closed-loop load through InferenceServer: a window of
//                  in-flight futures keeps the bounded queue full so the
//                  micro-batcher flushes on size, not time.
//   overload     — the same load against a deliberately tiny queue
//                  (2x oversubmission): demonstrates bounded-queue
//                  shedding — peak depth must stay ≤ capacity, the excess
//                  must come back as typed queue_full rejections, and
//                  every accepted request must still be answered.
//   open-loop TCP — `--conns` concurrent TCP connections against the
//                  epoll front-end (src/serve/transport/), arrivals on a
//                  fixed pre-generated schedule (chaos::arrival_times) so
//                  latency runs from each request's *scheduled* instant —
//                  no coordinated omission. Reports exact p50/p99/p99.9
//                  and bytes-per-connection.
// Emits BENCH_serving.json (a lehdc.metrics.v1 snapshot) for trajectory
// tracking; exits nonzero if an overload or open-loop invariant breaks.
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/arrival.hpp"
#include "core/pipeline.hpp"
#include "data/spec.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport/event_loop.hpp"
#include "serve/transport/socket.hpp"
#include "util/flags.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lehdc;

/// Runs fn (which answers `batch` queries) until min_seconds of wall time
/// accumulate and returns the aggregate queries/sec.
template <typename Fn>
double measure_qps(std::size_t batch, double min_seconds, Fn&& fn) {
  fn();  // warm-up: pools, scratch, first-touch pages
  const util::Stopwatch timer;
  std::size_t runs = 0;
  do {
    fn();
    ++runs;
  } while (timer.elapsed_seconds() < min_seconds);
  return static_cast<double>(runs * batch) / timer.elapsed_seconds();
}

/// Exact percentile (nearest-rank) over an already-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Raises RLIMIT_NOFILE far enough for `fds` descriptors (best effort;
/// the bench fails loudly at connect() if the cap still binds).
void raise_fd_limit(std::size_t fds) {
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) {
    return;
  }
  const rlim_t want = fds + 128;
  if (limit.rlim_cur < want) {
    limit.rlim_cur = std::min<rlim_t>(want, limit.rlim_max);
    (void)setrlimit(RLIMIT_NOFILE, &limit);
  }
}

/// One open-loop client connection: pending request bytes out, a frame
/// decoder over response bytes in.
struct OpenLoopClient {
  int fd = -1;
  std::string outbuf;
  serve::FrameDecoder decoder = serve::make_response_decoder("client");
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

struct OpenLoopResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t rejected = 0;
  double elapsed_seconds = 0.0;
  std::vector<double> latency_ms;  // sorted ascending
  double bytes_read_per_conn = 0.0;
  double bytes_written_per_conn = 0.0;
  std::uint64_t accepted = 0;
  std::size_t peak_queue_depth = 0;
  std::size_t queue_capacity = 0;
  bool failed = false;
};

/// Drives `conns` TCP connections against an EventLoop server (running
/// on its own thread) with a pre-generated open-loop schedule. Requests
/// are stamped with their scheduled instant, so queueing delay the load
/// generator itself experiences counts against the server — the honest
/// open-loop convention.
OpenLoopResult run_open_loop(serve::ModelRegistry& registry,
                             const data::Dataset& queries, std::size_t conns,
                             double rate_per_sec, double seconds,
                             std::uint64_t seed,
                             chaos::ArrivalProcess process =
                                 chaos::ArrivalProcess::kUniform,
                             double burst_factor = 8.0,
                             std::uint64_t burst_period_us = 200'000) {
  OpenLoopResult result;
  raise_fd_limit(conns);

  serve::ServerConfig server_config;
  server_config.batcher.max_batch = 256;
  server_config.batcher.max_wait_us = 200;
  server_config.batcher.queue_capacity = 4096;
  result.queue_capacity = server_config.batcher.queue_capacity;
  serve::InferenceServer server(registry, server_config);
  serve::transport::EventLoopConfig loop_config;
  loop_config.max_connections = conns + 16;
  serve::transport::EventLoop loop(server, loop_config);
  const int listener = serve::transport::listen_tcp("127.0.0.1", 0, 1024);
  const std::uint16_t port = serve::transport::local_port(listener);
  loop.add_listener(listener);

  std::atomic<bool> stop{false};
  std::thread loop_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      loop.poll_once(2);
    }
  });

  chaos::ArrivalConfig arrivals;
  arrivals.process = process;
  arrivals.rate_per_sec = rate_per_sec;
  arrivals.horizon_us = static_cast<std::uint64_t>(seconds * 1e6);
  arrivals.burst_factor = burst_factor;
  arrivals.period_us = burst_period_us;
  arrivals.seed = seed;
  const std::vector<std::uint64_t> schedule = chaos::arrival_times(arrivals);
  result.sent = schedule.size();

  std::vector<OpenLoopClient> clients(conns);
  for (OpenLoopClient& client : clients) {
    client.fd = serve::transport::connect_tcp("127.0.0.1", port, true);
  }

  std::vector<double> latencies;
  latencies.reserve(schedule.size());
  std::size_t next_arrival = 0;
  std::size_t completed = 0;
  char buf[64 * 1024];
  const util::Stopwatch timer;
  const double deadline_seconds = seconds + 30.0;

  while (completed < schedule.size()) {
    const double now_us = timer.elapsed_seconds() * 1e6;
    if (timer.elapsed_seconds() > deadline_seconds) {
      std::fprintf(stderr,
                   "FAIL: open-loop stalled at %zu/%zu responses\n",
                   completed, schedule.size());
      result.failed = true;
      break;
    }
    while (next_arrival < schedule.size() &&
           static_cast<double>(schedule[next_arrival]) <= now_us) {
      serve::WireRequest request;
      request.id = next_arrival + 1;
      const auto features = queries.sample(next_arrival % queries.size());
      request.features.assign(features.begin(), features.end());
      clients[next_arrival % conns].outbuf +=
          serve::encode_request(request);
      ++next_arrival;
    }
    for (OpenLoopClient& client : clients) {
      while (!client.outbuf.empty()) {
        const ssize_t n = ::send(client.fd, client.outbuf.data(),
                                 client.outbuf.size(), MSG_NOSIGNAL);
        if (n > 0) {
          client.bytes_written += static_cast<std::uint64_t>(n);
          client.outbuf.erase(0, static_cast<std::size_t>(n));
          continue;
        }
        if (errno == EINTR) {
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        std::fprintf(stderr, "FAIL: client send: %s\n", strerror(errno));
        result.failed = true;
        break;
      }
      while (true) {
        const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) {
            continue;
          }
          break;
        }
        client.bytes_read += static_cast<std::uint64_t>(n);
        client.decoder.feed({buf, static_cast<std::size_t>(n)});
        serve::FrameDecoder::Frame frame;
        while (client.decoder.next(&frame)) {
          const serve::Response response = serve::decode_response_payload(
              frame.payload, frame.version, "open-loop client");
          const double done_us = timer.elapsed_seconds() * 1e6;
          const double start_us =
              static_cast<double>(schedule[response.id - 1]);
          latencies.push_back((done_us - start_us) / 1000.0);
          if (response.ok()) {
            ++result.ok;
          } else {
            ++result.rejected;
          }
          ++completed;
        }
      }
      if (result.failed) {
        break;
      }
    }
  }
  result.elapsed_seconds = timer.elapsed_seconds();

  for (OpenLoopClient& client : clients) {
    ::close(client.fd);
    result.bytes_read_per_conn += static_cast<double>(client.bytes_read);
    result.bytes_written_per_conn +=
        static_cast<double>(client.bytes_written);
  }
  result.bytes_read_per_conn /= static_cast<double>(conns);
  result.bytes_written_per_conn /= static_cast<double>(conns);

  stop.store(true, std::memory_order_relaxed);
  loop_thread.join();
  result.accepted = loop.accepted_total();
  result.peak_queue_depth = server.peak_queue_depth();
  server.shutdown();

  std::sort(latencies.begin(), latencies.end());
  result.latency_ms = std::move(latencies);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags("serving_throughput",
                         "Micro-batching server throughput vs the direct "
                         "batch path; emits BENCH_serving.json.");
  flags.add_string("data", "synth:pamap", "training data spec");
  flags.add_double("scale", 0.05, "synthetic profile sample scale");
  flags.add_int("dim", 10000, "hypervector dimension D");
  flags.add_int("epochs", 5, "LeHDC training epochs (accuracy is not the "
                "point here)");
  flags.add_int("batch", 1024, "queries per closed-loop window");
  flags.add_int("threads", 0,
                "global pool workers (0 = LEHDC_THREADS, then hardware)");
  flags.add_int("seed", 1, "pipeline + data seed");
  flags.add_double("min-seconds", 0.3, "minimum wall time per measurement");
  flags.add_int("conns", 512,
                "open-loop TCP connections (0 skips the socket phase)");
  flags.add_double("open-rate", 5000.0,
                   "open-loop arrival rate, requests/second");
  flags.add_double("open-seconds", 1.0, "open-loop schedule horizon");
  flags.add_double("burst-factor", 8.0,
                   "bursty open-loop phase: square-wave peak multiplier "
                   "over --open-rate (0 skips the burst phase)");
  flags.add_int("burst-period-us", 200000,
                "bursty open-loop phase: square-wave period");
  flags.add_string("out", "BENCH_serving.json", "JSON output path");
  flags.parse(argc, argv);

  if (const auto threads = flags.get_int("threads"); threads > 0) {
    util::ThreadPool::configure_global(static_cast<std::size_t>(threads));
  }
  const auto batch = static_cast<std::size_t>(flags.get_int("batch"));
  const double min_seconds = flags.get_double("min-seconds");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const auto split = data::load_spec(flags.get_string("data"),
                                     flags.get_double("scale"), 0.2, seed);
  core::PipelineConfig config;
  config.dim = static_cast<std::size_t>(flags.get_int("dim"));
  config.seed = seed;
  config.lehdc.epochs = static_cast<std::size_t>(flags.get_int("epochs"));
  core::Pipeline pipeline(config);
  pipeline.fit(split.train, &split.test);

  // The query stream: test samples tiled up to one full window.
  data::Dataset queries(split.test.feature_count(), split.test.class_count());
  for (std::size_t q = 0; q < batch; ++q) {
    queries.add_sample(split.test.sample(q % split.test.size()), 0);
  }

  // 1. Direct upper bound: the fused encode+score batch path, no queueing.
  const double direct_qps = measure_qps(batch, min_seconds, [&] {
    (void)pipeline.predict_batch(queries);
  });

  // 2. Saturated closed loop through the server. max_batch matches the
  // window so a full window can flush as one batch; the wait deadline is
  // irrelevant once the queue is deep.
  serve::ModelRegistry registry;
  registry.add("default", std::move(pipeline));
  serve::ServerConfig server_config;
  server_config.batcher.max_batch = batch;
  server_config.batcher.max_wait_us = 200;
  server_config.batcher.queue_capacity = 4 * batch;
  double server_qps = 0.0;
  {
    serve::InferenceServer server(registry, server_config);
    server_qps = measure_qps(batch, min_seconds, [&] {
      std::vector<std::future<serve::Response>> inflight;
      inflight.reserve(batch);
      for (std::size_t q = 0; q < batch; ++q) {
        const auto features = queries.sample(q);
        inflight.push_back(
            server.submit({features.begin(), features.end()}));
      }
      for (auto& future : inflight) {
        if (!future.get().ok()) {
          throw std::runtime_error("saturation run rejected a request");
        }
      }
    });
    server.shutdown();
  }
  const double ratio = direct_qps > 0.0 ? server_qps / direct_qps : 0.0;

  // 3. Overload: 2x oversubmission against a queue sized for half the
  // burst. The bounded queue must shed the excess as typed rejections and
  // never grow past its capacity.
  serve::ServerConfig overload_config = server_config;
  overload_config.batcher.queue_capacity = batch;
  overload_config.batcher.max_batch = 64;
  std::size_t overload_ok = 0;
  std::size_t overload_shed = 0;
  std::size_t peak_depth = 0;
  {
    serve::InferenceServer server(registry, overload_config);
    std::vector<std::future<serve::Response>> inflight;
    inflight.reserve(2 * batch);
    for (std::size_t q = 0; q < 2 * batch; ++q) {
      const auto features = queries.sample(q % batch);
      inflight.push_back(server.submit({features.begin(), features.end()}));
    }
    for (auto& future : inflight) {
      const serve::Response response = future.get();
      if (response.ok()) {
        ++overload_ok;
      } else if (response.error == serve::Reject::kQueueFull) {
        ++overload_shed;
      } else {
        std::fprintf(stderr, "unexpected rejection: %s\n",
                     serve::reject_name(response.error));
        return 1;
      }
    }
    peak_depth = server.peak_queue_depth();
    server.shutdown();
  }

  // 4. Open-loop TCP through the epoll front-end. Metrics go live here so
  // the serve.conn.* counters/histograms from the event loop land in the
  // snapshot alongside the bench gauges.
  obs::set_enabled(true);
  const auto conns = static_cast<std::size_t>(flags.get_int("conns"));
  OpenLoopResult open;
  if (conns > 0) {
    open = run_open_loop(registry, queries, conns,
                         flags.get_double("open-rate"),
                         flags.get_double("open-seconds"), seed);
  }

  // 5. Open-loop TCP again under bursty arrivals: the same base rate, but
  // delivered as a square wave that alternates quiet valleys with
  // burst-factor× peaks (chaos::ArrivalProcess::kBursty, the same
  // generator the chaos scenarios use). Tail latency under burst is the
  // honest serving number — a uniform schedule never exercises the
  // micro-batcher's queue-then-flush transient.
  const double burst_factor = flags.get_double("burst-factor");
  OpenLoopResult burst;
  const bool run_burst = conns > 0 && burst_factor > 0.0;
  if (run_burst) {
    burst = run_open_loop(
        registry, queries, conns, flags.get_double("open-rate"),
        flags.get_double("open-seconds"), seed + 1,
        chaos::ArrivalProcess::kBursty, burst_factor,
        static_cast<std::uint64_t>(flags.get_int("burst-period-us")));
  }

  std::printf("direct batch-%zu:      %.0f qps\n", batch, direct_qps);
  std::printf("server saturated:     %.0f qps (%.1f%% of direct)\n",
              server_qps, ratio * 100.0);
  std::printf("overload 2x burst:    ok=%zu shed=%zu peak_depth=%zu "
              "(capacity %zu)\n",
              overload_ok, overload_shed, peak_depth,
              overload_config.batcher.queue_capacity);
  if (conns > 0) {
    std::printf(
        "open-loop tcp:        %zu conns, %zu reqs in %.2fs "
        "(ok=%zu rejected=%zu)\n",
        conns, open.sent, open.elapsed_seconds, open.ok, open.rejected);
    std::printf(
        "  latency p50=%.2fms p99=%.2fms p99.9=%.2fms; "
        "%.0f B read / %.0f B written per conn; peak depth %zu\n",
        percentile(open.latency_ms, 0.50), percentile(open.latency_ms, 0.99),
        percentile(open.latency_ms, 0.999), open.bytes_read_per_conn,
        open.bytes_written_per_conn, open.peak_queue_depth);
  }
  if (run_burst) {
    std::printf(
        "open-loop tcp burst:  %.0fx peaks every %lldus, %zu reqs in %.2fs "
        "(ok=%zu rejected=%zu)\n",
        burst_factor,
        static_cast<long long>(flags.get_int("burst-period-us")), burst.sent,
        burst.elapsed_seconds, burst.ok, burst.rejected);
    std::printf(
        "  latency p50=%.2fms p99=%.2fms p99.9=%.2fms; peak depth %zu\n",
        percentile(burst.latency_ms, 0.50),
        percentile(burst.latency_ms, 0.99),
        percentile(burst.latency_ms, 0.999), burst.peak_queue_depth);
  }

  bool failed = false;
  if (peak_depth > overload_config.batcher.queue_capacity) {
    std::fprintf(stderr, "FAIL: queue grew past its capacity\n");
    failed = true;
  }
  if (overload_shed == 0) {
    std::fprintf(stderr, "FAIL: 2x overload shed nothing\n");
    failed = true;
  }
  if (overload_ok + overload_shed != 2 * batch) {
    std::fprintf(stderr, "FAIL: responses lost under overload\n");
    failed = true;
  }
  if (conns > 0) {
    if (open.failed || open.ok + open.rejected != open.sent) {
      std::fprintf(stderr, "FAIL: open-loop responses lost\n");
      failed = true;
    }
    if (open.accepted < conns) {
      std::fprintf(stderr,
                   "FAIL: only %llu of %zu connections accepted\n",
                   static_cast<unsigned long long>(open.accepted), conns);
      failed = true;
    }
    if (open.peak_queue_depth > open.queue_capacity) {
      std::fprintf(stderr, "FAIL: open-loop queue depth unbounded\n");
      failed = true;
    }
  }
  if (run_burst) {
    if (burst.failed || burst.ok + burst.rejected != burst.sent) {
      std::fprintf(stderr, "FAIL: burst open-loop responses lost\n");
      failed = true;
    }
    if (burst.peak_queue_depth > burst.queue_capacity) {
      std::fprintf(stderr, "FAIL: burst queue depth unbounded\n");
      failed = true;
    }
  }

  auto& registry_obs = obs::Registry::global();
  registry_obs.gauge("bench.serving.direct_qps").set(direct_qps);
  registry_obs.gauge("bench.serving.server_qps").set(server_qps);
  registry_obs.gauge("bench.serving.saturation_ratio").set(ratio);
  registry_obs.gauge("bench.serving.overload_ok")
      .set(static_cast<double>(overload_ok));
  registry_obs.gauge("bench.serving.overload_shed")
      .set(static_cast<double>(overload_shed));
  registry_obs.gauge("bench.serving.overload_peak_depth")
      .set(static_cast<double>(peak_depth));
  if (conns > 0) {
    const double elapsed =
        open.elapsed_seconds > 0.0 ? open.elapsed_seconds : 1.0;
    registry_obs.gauge("bench.serving.tcp.connections")
        .set(static_cast<double>(conns));
    registry_obs.gauge("bench.serving.tcp.requests")
        .set(static_cast<double>(open.sent));
    registry_obs.gauge("bench.serving.tcp.qps")
        .set(static_cast<double>(open.ok + open.rejected) / elapsed);
    registry_obs.gauge("bench.serving.tcp.rejected")
        .set(static_cast<double>(open.rejected));
    registry_obs.gauge("bench.serving.tcp.p50_ms")
        .set(percentile(open.latency_ms, 0.50));
    registry_obs.gauge("bench.serving.tcp.p99_ms")
        .set(percentile(open.latency_ms, 0.99));
    registry_obs.gauge("bench.serving.tcp.p999_ms")
        .set(percentile(open.latency_ms, 0.999));
    registry_obs.gauge("bench.serving.tcp.bytes_read_per_conn")
        .set(open.bytes_read_per_conn);
    registry_obs.gauge("bench.serving.tcp.bytes_written_per_conn")
        .set(open.bytes_written_per_conn);
    registry_obs.gauge("bench.serving.tcp.peak_queue_depth")
        .set(static_cast<double>(open.peak_queue_depth));
  }
  if (run_burst) {
    const double elapsed =
        burst.elapsed_seconds > 0.0 ? burst.elapsed_seconds : 1.0;
    registry_obs.gauge("bench.serving.tcp.burst.factor").set(burst_factor);
    registry_obs.gauge("bench.serving.tcp.burst.period_us")
        .set(static_cast<double>(flags.get_int("burst-period-us")));
    registry_obs.gauge("bench.serving.tcp.burst.requests")
        .set(static_cast<double>(burst.sent));
    registry_obs.gauge("bench.serving.tcp.burst.qps")
        .set(static_cast<double>(burst.ok + burst.rejected) / elapsed);
    registry_obs.gauge("bench.serving.tcp.burst.rejected")
        .set(static_cast<double>(burst.rejected));
    registry_obs.gauge("bench.serving.tcp.burst.p50_ms")
        .set(percentile(burst.latency_ms, 0.50));
    registry_obs.gauge("bench.serving.tcp.burst.p99_ms")
        .set(percentile(burst.latency_ms, 0.99));
    registry_obs.gauge("bench.serving.tcp.burst.p999_ms")
        .set(percentile(burst.latency_ms, 0.999));
    registry_obs.gauge("bench.serving.tcp.burst.peak_queue_depth")
        .set(static_cast<double>(burst.peak_queue_depth));
  }

  obs::Json context = obs::Json::object();
  context.set("bench", "serving_throughput");
  context.set("batch", batch);
  context.set("dim", config.dim);
  context.set("queue_capacity", overload_config.batcher.queue_capacity);
  context.set("open_loop_conns", conns);
  context.set("pool_workers", util::ThreadPool::global().worker_count());

  const std::string& out_path = flags.get_string("out");
  obs::write_metrics_json(out_path, registry_obs, std::move(context));
  std::printf("wrote %s\n", out_path.c_str());
  return failed ? 1 : 0;
}
