// Transport-agnostic connection state machine.
//
// A Connection owns everything between raw bytes and the inference
// server: the incremental FrameDecoder on the read side, the ordered
// in-flight request queue in the middle, and the FrameEncoder write
// backlog on the way out. It never touches a file descriptor — the epoll
// EventLoop feeds it whatever recv() returned and drains whatever write()
// accepted, the chaos transport runner feeds it scripted chunks over
// virtual time, and both exercise identical admission, shedding and
// ordering code.
//
// State and resource bounds per connection:
//
//   read side   decoder buffer ≤ one partial frame (8 + 16 MiB cap) plus
//               one transport turn's worth of pipelined bytes — the
//               transport reads at most `read_budget_bytes` per turn and
//               stops entirely while wants_read() is false.
//   in flight   at most `max_inflight` submitted requests; when the cap
//               is reached the connection *pauses* decoding (bytes stay
//               buffered, wants_read() goes false) rather than shedding —
//               the requests are wanted, just not yet admissible.
//   write side  encoder backlog capped at `write_backlog_max_bytes`; a
//               request decoded while the peer is too slow to drain the
//               backlog is shed with a typed Reject::kQueueFull response
//               (the same shape the server's own admission control
//               produces), so a slow reader degrades loudly and cheaply
//               instead of growing the queue.
//
// Responses leave in request order per connection: a FIFO of futures is
// drained front-first, so a fast later request never overtakes a slow
// earlier one on the same connection (cross-connection order is
// unconstrained, as on any real transport). This is what makes the epoll
// path byte-comparable to the blocking one-request-at-a-time loop.
//
// Deadlines travel on the wire as budgets relative to server receipt;
// the connection converts them to absolute times against the *server's*
// clock at decode time, so FakeClock tests and production share one
// timeline.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <string>
#include <string_view>

#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace lehdc::serve::transport {

struct ConnectionConfig {
  /// Most bytes the transport should read from this connection per loop
  /// turn (fairness bound; enforced by the caller, advertised here so
  /// every transport agrees on the number).
  std::size_t read_budget_bytes = 64 * 1024;
  /// Encoder backlog above which newly decoded requests are shed with
  /// Reject::kQueueFull instead of being submitted.
  std::size_t write_backlog_max_bytes = 1024 * 1024;
  /// Submitted-but-unanswered request cap; decoding pauses at the cap.
  std::size_t max_inflight = 256;
  /// Close after this long with no read/write progress (0 disables).
  std::uint64_t idle_timeout_us = 60 * 1000 * 1000;
};

class Connection {
 public:
  /// `server` must outlive the connection. `now_us` is the server-clock
  /// accept time (starts the idle window).
  Connection(std::uint64_t id, InferenceServer& server,
             const ConnectionConfig& config, std::uint64_t now_us);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Feeds raw bytes from the transport; decodes and submits every
  /// complete frame the caps allow. Returns false when the stream is
  /// fatally broken (bad magic, oversized frame, malformed payload) —
  /// the transport must close without flushing; see last_error().
  [[nodiscard]] bool on_bytes(std::string_view bytes, std::uint64_t now_us);

  /// Peer half-closed its write side. Pending responses still drain;
  /// done() turns true once everything owed has been handed over.
  void on_eof() noexcept { eof_ = true; }

  /// Moves every ready in-order response from the in-flight queue into
  /// the write backlog and resumes decoding if the inflight cap had
  /// paused it. Returns the number of responses encoded. Call once per
  /// loop turn (and after the server dispatches, in manual mode).
  std::size_t pump_responses(std::uint64_t now_us);

  /// Next contiguous run of bytes to write (empty when drained); valid
  /// until the next pump_responses()/on_written() call.
  [[nodiscard]] std::string_view pending_write() const noexcept {
    return encoder_.pending();
  }

  /// Records `n` bytes of pending_write() accepted by the transport.
  void on_written(std::size_t n, std::uint64_t now_us);

  /// False while the inflight cap or the write-backlog cap is hit (or
  /// the connection failed/half-closed) — the transport must stop
  /// reading, which is what turns peer pressure into bounded memory.
  [[nodiscard]] bool wants_read() const noexcept;

  /// True when the connection owes nothing more: failed, or peer EOF
  /// with no in-flight requests and an empty write backlog.
  [[nodiscard]] bool done() const noexcept;

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& last_error() const noexcept {
    return error_;
  }

  /// Absolute server-clock time at which the idle timeout fires
  /// (UINT64_MAX when disabled). Any read/write progress pushes it out.
  [[nodiscard]] std::uint64_t idle_deadline_us() const noexcept;
  [[nodiscard]] bool idle_expired(std::uint64_t now_us) const noexcept {
    return now_us >= idle_deadline_us();
  }

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t inflight_count() const noexcept {
    return inflight_.size();
  }
  [[nodiscard]] std::size_t write_backlog_bytes() const noexcept {
    return encoder_.backlog_bytes();
  }
  [[nodiscard]] std::size_t buffered_read_bytes() const noexcept {
    return decoder_.buffered();
  }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] std::uint64_t requests_decoded() const noexcept {
    return requests_decoded_;
  }
  [[nodiscard]] std::uint64_t feedback_decoded() const noexcept {
    return feedback_decoded_;
  }
  [[nodiscard]] std::uint64_t responses_sent() const noexcept {
    return responses_sent_;
  }
  [[nodiscard]] std::uint64_t sheds() const noexcept { return sheds_; }

  [[nodiscard]] const ConnectionConfig& config() const noexcept {
    return config_;
  }

 private:
  /// Decodes + submits frames already buffered, until the caps pause it
  /// or the bytes run out. Sets failed_ on protocol errors.
  void decode_pending(std::uint64_t now_us);
  /// Queues an immediate typed-reject response for a shed request.
  void shed(const WireRequest& request);
  /// Resolves one LSF2 feedback frame through the server's online sidecar
  /// and queues the ack/reject through the same in-flight FIFO, so
  /// feedback acks never overtake earlier in-flight responses.
  void acknowledge_feedback(const WireFeedback& feedback);

  std::uint64_t id_;
  InferenceServer& server_;
  ConnectionConfig config_;
  FrameDecoder decoder_;
  FrameEncoder encoder_;
  std::deque<std::future<Response>> inflight_;
  std::uint64_t last_activity_us_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t requests_decoded_ = 0;
  std::uint64_t feedback_decoded_ = 0;
  std::uint64_t responses_sent_ = 0;
  std::uint64_t sheds_ = 0;
  bool eof_ = false;
  bool failed_ = false;
  std::string error_;
};

}  // namespace lehdc::serve::transport
