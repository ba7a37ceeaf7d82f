#include "serve/transport/connection.hpp"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/online.hpp"
#include "serve/protocol.hpp"
#include "serve/tenant.hpp"

namespace lehdc::serve::transport {

namespace {

/// Connection-level sheds land on the same typed-reject counter the
/// server's admission control uses: a client sees kQueueFull either way,
/// so the metric should not split by *where* the queue filled up.
obs::Counter& shed_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("serve.rejected_queue_full");
  return c;
}

}  // namespace

Connection::Connection(std::uint64_t id, InferenceServer& server,
                       const ConnectionConfig& config, std::uint64_t now_us)
    : id_(id),
      server_(server),
      config_(config),
      decoder_(make_request_decoder("connection " + std::to_string(id))),
      last_activity_us_(now_us) {}

bool Connection::on_bytes(std::string_view bytes, std::uint64_t now_us) {
  if (failed_) {
    return false;
  }
  if (!bytes.empty()) {
    bytes_read_ += bytes.size();
    last_activity_us_ = now_us;
    decoder_.feed(bytes);
  }
  decode_pending(now_us);
  return !failed_;
}

void Connection::decode_pending(std::uint64_t now_us) {
  while (!failed_ && inflight_.size() < config_.max_inflight) {
    FrameDecoder::Frame frame;
    WireRequest request;
    try {
      if (!decoder_.next(&frame)) {
        return;  // mid-frame; wait for more bytes
      }
      if (frame.version == kFeedbackFrameKind) {
        const WireFeedback feedback = decode_feedback_payload(
            frame.payload, "connection " + std::to_string(id_));
        ++feedback_decoded_;
        acknowledge_feedback(feedback);
        continue;
      }
      request = decode_request_payload(frame.payload, frame.version,
                                       "connection " + std::to_string(id_));
    } catch (const std::runtime_error& e) {
      // Framing cannot re-synchronize past a bad header, and a malformed
      // payload means the peer is broken: fail hard, transport closes.
      failed_ = true;
      error_ = e.what();
      return;
    }
    ++requests_decoded_;
    if (encoder_.backlog_bytes() >= config_.write_backlog_max_bytes) {
      // Slow reader: the peer is not draining responses, so new work is
      // shed with the same typed reject admission control would produce.
      shed(request);
      continue;
    }
    const std::uint64_t deadline_us =
        request.deadline_budget_us == 0 ? 0
                                        : now_us + request.deadline_budget_us;
    inflight_.push_back(server_.submit(std::move(request.features),
                                       deadline_us, request.tenant,
                                       request.id));
  }
}

void Connection::shed(const WireRequest& request) {
  ++sheds_;
  shed_counter().add();
  Response response;
  response.id = request.id;
  response.error = Reject::kQueueFull;
  response.tenant = request.tenant.empty() ? server_.config().default_tenant
                                           : request.tenant;
  if (obs::enabled()) {
    tenant_metrics(response.tenant).rejected.add();
  }
  // The reject still travels through the in-flight FIFO (as an
  // already-ready future) so responses never leave out of request order.
  std::promise<Response> promise;
  promise.set_value(std::move(response));
  inflight_.push_back(promise.get_future());
}

void Connection::acknowledge_feedback(const WireFeedback& feedback) {
  Response ack;
  ack.id = feedback.id;
  ack.label = -1;  // an ack predicts nothing
  ack.tenant = feedback.tenant.empty() ? server_.config().default_tenant
                                       : feedback.tenant;
  if (encoder_.backlog_bytes() >= config_.write_backlog_max_bytes) {
    // Slow reader: shed the feedback exactly like a request would be.
    ++sheds_;
    shed_counter().add();
    ack.error = Reject::kQueueFull;
  } else {
    OnlineSidecar* online = server_.online();
    // Without a sidecar no correlation can exist, so the typed verdict is
    // the same a stale correlation would earn.
    ack.error = online == nullptr
                    ? Reject::kUnknownCorrelation
                    : online->offer_feedback(ack.tenant, feedback.id,
                                             feedback.label);
  }
  // The ack travels through the in-flight FIFO as an already-ready future
  // (the shed() pattern), preserving per-connection response order
  // between acks and in-flight predictions.
  std::promise<Response> promise;
  promise.set_value(std::move(ack));
  inflight_.push_back(promise.get_future());
}

std::size_t Connection::pump_responses(std::uint64_t now_us) {
  if (failed_) {
    return 0;
  }
  std::size_t encoded = 0;
  // Strictly front-first: a ready later response waits behind a pending
  // earlier one, preserving per-connection request order on the wire.
  while (!inflight_.empty() &&
         inflight_.front().wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready) {
    std::future<Response> ready = std::move(inflight_.front());
    inflight_.pop_front();
    encoder_.push(encode_response(ready.get()));
    ++responses_sent_;
    ++encoded;
  }
  if (encoded > 0) {
    // Draining the FIFO may clear the inflight pause; frames the peer
    // already sent are sitting in the decoder waiting for this.
    decode_pending(now_us);
  }
  return encoded;
}

void Connection::on_written(std::size_t n, std::uint64_t now_us) {
  encoder_.consume(n);
  bytes_written_ += n;
  if (n > 0) {
    last_activity_us_ = now_us;
  }
}

bool Connection::wants_read() const noexcept {
  return !failed_ && !eof_ && inflight_.size() < config_.max_inflight &&
         encoder_.backlog_bytes() < config_.write_backlog_max_bytes;
}

bool Connection::done() const noexcept {
  // After EOF, everything decodable has been decoded whenever the caps
  // were clear, so once the FIFO and the backlog drain the only possible
  // leftover is a trailing partial frame — owed nothing.
  return failed_ || (eof_ && inflight_.empty() && encoder_.empty());
}

std::uint64_t Connection::idle_deadline_us() const noexcept {
  if (config_.idle_timeout_us == 0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return last_activity_us_ + config_.idle_timeout_us;
}

}  // namespace lehdc::serve::transport
