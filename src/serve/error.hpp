// Typed serving outcomes.
//
// Graceful shedding is part of the serving contract: a request that cannot
// be served is rejected with a machine-readable reason (queue full, deadline
// exceeded, shutdown, ...) instead of an exception string or — worse —
// unbounded queue growth. The same codes travel over the wire protocol, so
// a remote client sees exactly what an in-process caller sees.
#pragma once

#include <cstdint>
#include <string>

namespace lehdc::serve {

/// Why a request was not served. kNone means success.
enum class Reject : std::uint8_t {
  kNone = 0,
  /// The bounded request queue was at capacity (admission control shed the
  /// request; the client may retry with backoff).
  kQueueFull = 1,
  /// The request's deadline passed before its batch was dispatched.
  kDeadlineExceeded = 2,
  /// The server is shutting down and no longer admits requests.
  kShuttingDown = 3,
  /// No model with the requested name is registered.
  kModelNotFound = 4,
  /// The request is malformed (e.g. feature count does not match the
  /// model's encoder).
  kBadRequest = 5,
  /// A feedback frame referenced a request id the server has no record of
  /// for that tenant — the correlation window expired, the id was never
  /// served, or the feedback named a different tenant than the request.
  kUnknownCorrelation = 6,
};

/// Stable lowercase identifier ("queue_full", ...) for logs and metrics.
[[nodiscard]] const char* reject_name(Reject reason) noexcept;

/// One served (or shed) request's outcome.
struct Response {
  std::uint64_t id = 0;
  Reject error = Reject::kNone;
  /// Predicted class label; -1 when the request was rejected.
  int label = -1;
  /// Size of the micro-batch this request was served in; 0 on rejection.
  std::uint32_t batch_size = 0;
  /// Server-side end-to-end latency (enqueue to fulfilment) in seconds.
  double latency_seconds = 0.0;
  /// Tenant the request was routed to (the resolved id, never empty on a
  /// served response). Response frames echo it on the wire so clients can
  /// detect cross-tenant mixups.
  std::string tenant;

  [[nodiscard]] bool ok() const noexcept { return error == Reject::kNone; }
};

}  // namespace lehdc::serve
