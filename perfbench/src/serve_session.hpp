// The serve session of the traced run: an in-process InferenceServer +
// EventLoop on a loopback TCP listener with lehdc_serve's default
// settings, driven through three load phases on synthetic PAMAP data.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common.hpp"
#include "load_gen.hpp"

namespace perfbench {

struct ServeSession {
  /// low: open loop, 500 rps.
  LoadResult low;
  /// high: open loop, 4000 rps with the online sidecar attached and LSF2
  /// feedback after every 8th response; sat: closed loop, 256 requests in
  /// flight per connection. Both run in rounds on fresh connections and
  /// keep the median of the per-round figures.
  double high_p50_ms = 0.0;
  double high_p99_ms = 0.0;
  double sat_rps = 0.0;
  std::size_t high_measured = 0;
  std::size_t sat_measured = 0;
  /// Feedback-ack latencies and generator lateness over all phases.
  Samples ack_ms;
  Samples lag_ms;
  /// Responses and acks received over the TCP phases.
  std::size_t responses = 0;
  /// Served accuracy of the low phase against the true labels.
  double accuracy = 0.0;
  /// Event-loop turns over the three TCP phases.
  std::uint64_t polls = 0;
  std::size_t flips = 0;
  std::size_t updates = 0;
  /// InferenceServer::submit -> future at 4000 rps, no sockets.
  Samples inproc_ms;
  double batch_size_mean = 0.0;
  double dispatch_p50_ms = 0.0;
  std::size_t peak_queue_depth = 0;
};

/// Runs setup, the three TCP phases and an in-process phase at the high
/// rate, and records the output checks and per-phase tallies in `report`.
/// `scale` multiplies the measured request counts. The library's metrics
/// must be enabled (the session reads the server's histograms).
[[nodiscard]] ServeSession run_serve_session(const Options& options,
                                             Report& report, double scale);

}  // namespace perfbench
