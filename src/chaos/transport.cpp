#include "chaos/transport.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "serve/clock.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/tenant.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace lehdc::chaos {

const char* transport_invariant_name(TransportInvariant invariant) noexcept {
  switch (invariant) {
    case TransportInvariant::kBoundedConnectionMemory:
      return "bounded_connection_memory";
    case TransportInvariant::kTypedRejectsOnly:
      return "typed_rejects_only";
    case TransportInvariant::kNoCrossConnectionBleed:
      return "no_cross_connection_bleed";
  }
  return "unknown";
}

namespace {

class ScopedMetricsEnabled {
 public:
  ScopedMetricsEnabled() : was_(obs::enabled()) { obs::set_enabled(true); }
  ~ScopedMetricsEnabled() { obs::set_enabled(was_); }
  ScopedMetricsEnabled(const ScopedMetricsEnabled&) = delete;
  ScopedMetricsEnabled& operator=(const ScopedMetricsEnabled&) = delete;

 private:
  bool was_;
};

struct TenantModel {
  std::string id;
  std::shared_ptr<const core::Pipeline> pipeline;
  data::Dataset queries;
};

TenantModel build_tenant(const TransportScenarioConfig& config,
                         std::string id, std::uint64_t seed) {
  data::SyntheticConfig synth;
  synth.feature_count = config.feature_count;
  synth.class_count = config.class_count;
  synth.train_count = config.train_count;
  synth.test_count = config.query_pool;
  synth.class_separation = 1.2;
  synth.noise_stddev = 0.25;
  synth.seed = seed;
  auto split = data::generate_synthetic(synth);
  core::PipelineConfig pipeline_config;
  pipeline_config.dim = config.dim;
  pipeline_config.strategy = core::Strategy::kBaseline;
  pipeline_config.seed = seed;
  auto pipeline = std::make_shared<core::Pipeline>(pipeline_config);
  pipeline->fit(split.train);
  return {std::move(id), std::move(pipeline), std::move(split.test)};
}

/// One slot in the connection pool. Churn replaces the Connection object
/// (and its serial, ids, accounting) but the slot keeps its remaining
/// send schedule — the replacement inherits the traffic, not the state.
struct Slot {
  std::size_t index = 0;
  std::string tenant;
  const data::Dataset* queries = nullptr;
  std::vector<std::uint64_t> send_times;  // ascending
  std::size_t next_send = 0;

  // Per-Connection-object state (reset on churn).
  std::unique_ptr<serve::transport::Connection> conn;
  std::uint64_t serial = 0;
  std::string network;  // bytes sent but not yet fed (kernel buffer stand-in)
  serve::FrameDecoder response_decoder{serve::make_response_decoder("slot")};
  std::set<std::uint64_t> outstanding;
  std::size_t sent = 0;
  std::size_t matched = 0;
  bool slow = false;
};

std::vector<float> features_of(const data::Dataset& dataset, std::size_t i) {
  const auto row = dataset.sample(i);
  return {row.begin(), row.end()};
}

}  // namespace

TransportScenarioResult run_transport_scenario(
    const TransportScenarioConfig& config,
    std::span<const TransportInvariant> invariants) {
  util::expects(config.connections > 0, "scenario needs connections");
  util::expects(config.chunk_bytes > 0, "chunk_bytes must be positive");
  util::expects(!invariants.empty(),
                "a transport scenario must assert at least one invariant");

  const ScopedMetricsEnabled metrics_on;
  TransportScenarioResult result;
  result.name = config.name;

  // Two tenants with distinct models; connections alternate between them
  // so a bled frame also crosses a tenant boundary whenever it crosses an
  // adjacent connection.
  std::vector<TenantModel> tenants;
  tenants.push_back(build_tenant(config, "acme", config.seed * 2 + 11));
  tenants.push_back(build_tenant(config, "globex", config.seed * 2 + 23));

  serve::FakeClock clock(0);
  serve::ModelRegistry registry;
  serve::ServerConfig server_config;
  server_config.batcher = config.batcher;
  server_config.default_tenant = tenants[0].id;
  server_config.manual_dispatch = true;
  for (const TenantModel& tenant : tenants) {
    registry.bind(tenant.id, tenant.pipeline);
  }
  serve::InferenceServer server(registry, server_config, &clock);

  util::Rng master(config.seed);
  std::uint64_t next_serial = 1;

  // The per-connection memory caps the invariant asserts: the decode
  // buffer may hold one turn's feed budget plus one partial frame, the
  // write backlog the cap plus every inflight response landing at once.
  const std::size_t max_request_frame =
      8 + 8 + 8 + 2 + serve::kMaxTenantIdBytes + 4 +
      config.feature_count * sizeof(float);
  const std::size_t max_response_frame =
      8 + 8 + 1 + 4 + 4 + 8 + 2 + serve::kMaxTenantIdBytes;
  const std::size_t read_buffer_bound =
      config.connection.read_budget_bytes + max_request_frame;
  const std::size_t write_backlog_bound =
      config.connection.write_backlog_max_bytes +
      config.connection.max_inflight * max_response_frame;

  const auto open_connection = [&](Slot& slot) {
    slot.serial = next_serial++;
    slot.conn = std::make_unique<serve::transport::Connection>(
        slot.serial, server, config.connection, clock.now_us());
    slot.network.clear();
    slot.response_decoder =
        serve::make_response_decoder("slot " + std::to_string(slot.index));
    slot.outstanding.clear();
    slot.sent = 0;
    slot.matched = 0;
    ++result.connections_opened;
  };

  std::vector<Slot> slots(config.connections);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    slot.index = i;
    slot.tenant = tenants[i % tenants.size()].id;
    slot.queries = &tenants[i % tenants.size()].queries;
    slot.slow = config.slow_reader_every != 0 &&
                (i + 1) % config.slow_reader_every == 0;
    ArrivalConfig arrivals = config.arrivals;
    arrivals.seed = master.derive_seed(i + 1);
    slot.send_times = arrival_times(arrivals);
    if (slot.send_times.size() > config.requests_per_connection) {
      slot.send_times.resize(config.requests_per_connection);
    }
    while (slot.send_times.size() < config.requests_per_connection) {
      slot.send_times.push_back(config.arrivals.horizon_us +
                                1000 * (slot.send_times.size() + 1));
    }
    open_connection(slot);
  }

  // Decodes and validates every response frame the reader drained.
  const auto validate_responses = [&](Slot& slot, std::string_view bytes) {
    slot.response_decoder.feed(bytes);
    serve::FrameDecoder::Frame frame;
    while (slot.response_decoder.next(&frame)) {
      const serve::Response response = serve::decode_response_payload(
          frame.payload, frame.version,
          "slot " + std::to_string(slot.index));
      if (slot.outstanding.erase(response.id) == 0) {
        ++result.bleed_errors;
      } else {
        ++slot.matched;
      }
      if (response.tenant != slot.tenant) {
        ++result.bleed_errors;
      }
      if (response.ok()) {
        ++result.responses_ok;
      } else {
        const auto status = static_cast<std::uint8_t>(response.error);
        if (status == 0 ||
            status > static_cast<std::uint8_t>(serve::Reject::kBadRequest) ||
            response.label != -1) {
          ++result.untyped;
        }
        ++result.responses_rejected;
      }
    }
  };

  // One simulation turn at the current virtual time: feed due bytes under
  // the read budget, pump the server, encode ready responses, and let
  // non-slow readers drain their write stream in awkward chunks.
  const auto turn = [&](bool drain) {
    const std::uint64_t now = clock.now_us();
    for (Slot& slot : slots) {
      std::size_t fed = 0;
      while (fed < config.connection.read_budget_bytes &&
             !slot.network.empty() && slot.conn->wants_read()) {
        const std::size_t n = std::min(
            {config.chunk_bytes, slot.network.size(),
             config.connection.read_budget_bytes - fed});
        const bool alive =
            slot.conn->on_bytes({slot.network.data(), n}, now);
        util::ensures(alive, "well-formed frames must never fail decode");
        slot.network.erase(0, n);
        fed += n;
      }
      server.run_until_idle();
      slot.conn->pump_responses(now);
      if (!slot.slow || drain) {
        while (true) {
          const std::string_view pending = slot.conn->pending_write();
          if (pending.empty()) {
            break;
          }
          const std::size_t n = std::min(config.chunk_bytes, pending.size());
          validate_responses(slot, pending.substr(0, n));
          slot.conn->on_written(n, now);
        }
      }
      result.peak_read_buffer_bytes =
          std::max(result.peak_read_buffer_bytes,
                   slot.conn->buffered_read_bytes());
      result.peak_write_backlog_bytes =
          std::max(result.peak_write_backlog_bytes,
                   slot.conn->write_backlog_bytes());
    }
  };

  util::Rng churn_rng(master.derive_seed(0xc0441));
  std::uint64_t next_churn =
      config.churn_every_us > 0 ? config.churn_every_us
                                : serve::MicroBatcher::kNever;
  std::uint64_t request_seq = 0;

  const std::size_t total_sends =
      config.connections * config.requests_per_connection;
  std::size_t iterations = 0;
  const std::size_t max_iterations = total_sends * 8 + 4096;

  while (true) {
    if (++iterations > max_iterations) {
      result.violations.push_back(result.name +
                                  ": event loop stalled (runner bug)");
      break;
    }
    std::uint64_t t = serve::MicroBatcher::kNever;
    bool sends_pending = false;
    for (const Slot& slot : slots) {
      if (slot.next_send < slot.send_times.size()) {
        sends_pending = true;
        t = std::min(t, slot.send_times[slot.next_send]);
      }
    }
    t = std::min(t, server.next_event_us());
    if (next_churn <= config.arrivals.horizon_us) {
      t = std::min(t, next_churn);
    }
    if (!sends_pending || t == serve::MicroBatcher::kNever) {
      break;
    }
    t = std::max(t, clock.now_us());
    clock.set_us(t);

    // Churn wave: drop a deterministic subset abruptly — often mid-frame
    // and with requests still queued server-side — and open replacements.
    while (next_churn <= t) {
      const std::size_t victims = std::max<std::size_t>(
          1, static_cast<std::size_t>(config.churn_fraction *
                                      static_cast<double>(slots.size())));
      for (std::size_t v = 0; v < victims; ++v) {
        Slot& slot = slots[churn_rng.next_below(slots.size())];
        result.sent_dropped += slot.sent;
        ++result.connections_dropped;
        open_connection(slot);
      }
      next_churn += config.churn_every_us;
    }

    // Place due request frames on each slot's simulated network.
    for (Slot& slot : slots) {
      while (slot.next_send < slot.send_times.size() &&
             slot.send_times[slot.next_send] <= t) {
        serve::WireRequest request;
        request.id = ++request_seq;
        request.tenant = slot.tenant;
        request.deadline_budget_us = config.deadline_budget_us;
        request.features = features_of(
            *slot.queries, slot.sent % slot.queries->size());
        slot.network += serve::encode_request(request);
        slot.outstanding.insert(request.id);
        ++slot.sent;
        ++slot.next_send;
      }
    }
    turn(/*drain=*/false);
  }

  // Drain: slow readers wake up, the batcher's wait windows elapse, and
  // every byte still in flight completes its round trip.
  std::size_t drain_rounds = 0;
  const auto drained = [&] {
    for (const Slot& slot : slots) {
      if (!slot.network.empty() || !slot.outstanding.empty() ||
          !slot.conn->pending_write().empty()) {
        return false;
      }
    }
    return true;
  };
  while (!drained() && drain_rounds++ < total_sends + 1024) {
    clock.advance_us(config.batcher.max_wait_us + 1);
    turn(/*drain=*/true);
  }
  if (!drained()) {
    result.violations.push_back(result.name +
                                ": drain did not converge (lost frames?)");
  }
  server.shutdown();

  for (const Slot& slot : slots) {
    result.sent_live += slot.sent;
    result.sheds += slot.conn->sheds();
  }

  // ------------------------------------------------- invariant checks --
  const auto violate = [&](TransportInvariant invariant,
                           const std::string& detail) {
    result.violations.push_back(
        std::string(transport_invariant_name(invariant)) + ": " + detail);
  };
  for (const TransportInvariant invariant : invariants) {
    switch (invariant) {
      case TransportInvariant::kBoundedConnectionMemory:
        if (result.peak_read_buffer_bytes > read_buffer_bound) {
          violate(invariant,
                  "peak decode buffer " +
                      std::to_string(result.peak_read_buffer_bytes) +
                      " exceeds bound " + std::to_string(read_buffer_bound));
        }
        if (result.peak_write_backlog_bytes > write_backlog_bound) {
          violate(invariant,
                  "peak write backlog " +
                      std::to_string(result.peak_write_backlog_bytes) +
                      " exceeds bound " +
                      std::to_string(write_backlog_bound));
        }
        break;
      case TransportInvariant::kTypedRejectsOnly: {
        if (result.untyped > 0) {
          violate(invariant, std::to_string(result.untyped) +
                                 " responses with untyped/inconsistent "
                                 "reject state");
        }
        std::size_t matched_live = 0;
        for (const Slot& slot : slots) {
          matched_live += slot.matched;
        }
        if (matched_live != result.sent_live) {
          violate(invariant,
                  "sent " + std::to_string(result.sent_live) +
                      " on surviving connections but matched " +
                      std::to_string(matched_live) + " responses");
        }
        break;
      }
      case TransportInvariant::kNoCrossConnectionBleed:
        if (result.bleed_errors > 0) {
          violate(invariant,
                  std::to_string(result.bleed_errors) +
                      " responses with foreign id or tenant echo");
        }
        break;
    }
  }

  // ------------------------------------------------------------ report --
  obs::Registry local;
  local.counter("chaos.transport.sent").add(result.sent_live);
  local.counter("chaos.transport.sent_dropped").add(result.sent_dropped);
  local.counter("chaos.transport.responses_ok").add(result.responses_ok);
  local.counter("chaos.transport.responses_rejected")
      .add(result.responses_rejected);
  local.counter("chaos.transport.sheds").add(result.sheds);
  local.counter("chaos.transport.bleed_errors").add(result.bleed_errors);
  local.counter("chaos.transport.connections_opened")
      .add(result.connections_opened);
  local.counter("chaos.transport.connections_dropped")
      .add(result.connections_dropped);
  local.gauge("chaos.transport.peak_read_buffer_bytes")
      .set(static_cast<double>(result.peak_read_buffer_bytes));
  local.gauge("chaos.transport.peak_write_backlog_bytes")
      .set(static_cast<double>(result.peak_write_backlog_bytes));
  local.gauge("chaos.transport.invariant_violations")
      .set(static_cast<double>(result.violations.size()));

  obs::Json context = obs::Json::object();
  context.set("scenario", result.name);
  context.set("process", arrival_process_name(config.arrivals.process));
  context.set("seed", config.seed);
  context.set("connections", config.connections);
  context.set("horizon_us", config.arrivals.horizon_us);
  context.set("invariants_checked", invariants.size());
  result.report = obs::metrics_snapshot(local, std::move(context));
  return result;
}

namespace {

TransportScenarioConfig transport_base(const std::string& name,
                                       double scale) {
  util::expects(scale > 0.0, "scenario scale must be positive");
  TransportScenarioConfig config;
  config.name = name;
  config.arrivals.process = ArrivalProcess::kUniform;
  config.arrivals.horizon_us =
      static_cast<std::uint64_t>(50'000.0 * scale);
  config.requests_per_connection =
      static_cast<std::size_t>(16.0 * scale);
  // Spread each connection's sends across the whole horizon (rather than
  // front-loading them) so churn waves and backlog growth interleave
  // with live traffic instead of arriving after it.
  config.arrivals.rate_per_sec =
      static_cast<double>(config.requests_per_connection) * 1e6 /
      static_cast<double>(config.arrivals.horizon_us);
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 500;
  config.batcher.queue_capacity = 256;
  return config;
}

TransportScenarioConfig connection_churn(double scale) {
  TransportScenarioConfig config = transport_base("connection_churn", scale);
  config.connections = 24;
  // A churn wave every few flush windows: drops land mid-frame (7-byte
  // chunks guarantee split headers) and mid-flight (requests queued).
  config.churn_every_us = 5'000;
  config.churn_fraction = 0.25;
  config.arrivals.process = ArrivalProcess::kBursty;
  config.arrivals.burst_factor = 8.0;
  config.arrivals.period_us = 10'000;
  return config;
}

TransportScenarioConfig slow_reader_backpressure(double scale) {
  TransportScenarioConfig config =
      transport_base("slow_reader_backpressure", scale);
  config.connections = 8;
  // Every second connection stops draining responses entirely. A tiny
  // write-backlog cap forces the shed path: decoded requests on stalled
  // connections must turn into typed kQueueFull responses, and decode
  // must pause (bounded memory) rather than buffer the firehose. Enough
  // requests per connection that the backlog saturates while traffic is
  // still arriving.
  config.slow_reader_every = 2;
  config.requests_per_connection = 32;
  config.arrivals.rate_per_sec =
      static_cast<double>(config.requests_per_connection) * 1e6 /
      static_cast<double>(config.arrivals.horizon_us);
  config.connection.write_backlog_max_bytes = 64;
  config.connection.max_inflight = 8;
  // Kernel-sized reads, not drip-fed bytes: the shed path fires when a
  // single read buffers frames beyond the inflight cap and the pump then
  // finds the backlog saturated — 7-byte chunks could never set that up.
  config.chunk_bytes = 4096;
  config.connection.read_budget_bytes = 4096;
  return config;
}

}  // namespace

const std::vector<NamedTransportScenario>& transport_scenario_matrix() {
  // LINT-SCENARIOS-BEGIN (every entry must register >= 1 invariant)
  static const std::vector<NamedTransportScenario> matrix = {
      {"connection_churn",
       {TransportInvariant::kBoundedConnectionMemory,
        TransportInvariant::kTypedRejectsOnly,
        TransportInvariant::kNoCrossConnectionBleed},
       &connection_churn},
      {"slow_reader_backpressure",
       {TransportInvariant::kBoundedConnectionMemory,
        TransportInvariant::kTypedRejectsOnly,
        TransportInvariant::kNoCrossConnectionBleed},
       &slow_reader_backpressure},
  };
  // LINT-SCENARIOS-END
  return matrix;
}

}  // namespace lehdc::chaos
