// Single-threaded TCP load generator for the traced serve session.
//
// One thread drives every connection. It blocks in ppoll until the next
// scheduled send is due or a socket is readable, so it never spins and
// never takes a core from the server. Client sockets set TCP_NODELAY, as
// any RPC client does; nothing here touches TCP_QUICKACK or otherwise
// changes how the server's responses are acknowledged, so a server-side
// Nagle/delayed-ACK stall stays visible in the latencies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct LoadPlan {
  std::uint16_t port = 0;
  std::size_t connections = 4;
  /// Open loop: request i is due at start + i / rate_rps, on connection
  /// i % connections, and its latency runs from that due instant.
  /// Closed loop: each connection keeps `window` requests in flight and
  /// latency runs from the actual send.
  bool closed_loop = false;
  double rate_rps = 0.0;
  std::size_t window = 256;
  std::size_t requests = 0;
  /// Requests excluded from the latency samples (open loop) or from the
  /// throughput window (closed loop).
  std::size_t warmup = 0;
  /// After every Kth successful response, send an LSF2 feedback frame on
  /// the same connection carrying feedback_labels of the answered sample
  /// (0 = never).
  std::size_t feedback_every = 0;
  /// How long to wait for outstanding replies once sending is over.
  double drain_timeout_s = 10.0;
  /// Request i carries features pool[order[i % order.size()]].
  const std::vector<std::vector<float>>* pool = nullptr;
  const std::vector<int>* feedback_labels = nullptr;
  std::vector<std::size_t> order;
  /// Wire ids are id_base + i (unique per phase, so feedback correlates).
  std::uint64_t id_base = 1;
};

struct LoadResult {
  /// Latency of measured requests in ms. A rejected or unanswered request
  /// counts as a miss and enters as kMissLatencyMs.
  Samples latency_ms;
  Samples ack_ms;
  /// How late each open-loop send left relative to its schedule, in ms.
  Samples lag_ms;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t rejected = 0;
  std::size_t missing = 0;
  std::size_t feedback_sent = 0;
  std::size_t acks = 0;
  std::size_t ack_rejected = 0;
  /// Per request index: the served label, or -1 when rejected/unanswered.
  std::vector<int> labels;
  /// Closed loop: responses per second after the warm-up.
  double rps = 0.0;
  /// Ordering, id, framing and socket errors; any entry fails the run.
  std::vector<std::string> errors;
};

/// Latency recorded for a request that was refused or never answered.
inline constexpr double kMissLatencyMs = 10000.0;

[[nodiscard]] LoadResult run_load(const LoadPlan& plan);

}  // namespace perfbench
