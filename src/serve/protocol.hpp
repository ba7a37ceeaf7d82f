// Length-prefixed binary wire protocol for lehdc_serve.
//
// One frame per message, same shape in both directions:
//
//   magic (4 bytes) | u32 payload_size | payload
//
// Each magic names one frame kind of the single live generation:
//
//   "LSR2" request payload :=
//     u64 id | u64 deadline_budget_us | u16 tenant_length
//     | tenant bytes | u32 feature_count | f32[feature_count]
//   "LSS2" response payload :=
//     u64 id | u8 status (serve::Reject) | i32 label | u32 batch_size
//     | f64 latency_seconds | u16 tenant_length | tenant bytes — the
//     server echoes the tenant it routed to, so clients can detect
//     cross-tenant mixups on the wire.
//   "LSF2" feedback payload :=
//     u64 id | u16 tenant_length | tenant bytes | i32 label — the true
//     label for an earlier prediction, correlated by (tenant, id);
//     acknowledged with a normal response frame (status kNone or
//     kUnknownCorrelation, label -1).
//
// Any other magic, the retired first-generation ones included, is a
// typed "bad frame magic" error. An empty tenant routes to the server's default
// tenant; a non-empty tenant must satisfy valid_tenant_id() or the frame
// is rejected as malformed.
//
// Integers are little-endian (the library's serial.hpp convention). The
// deadline travels as a *budget* relative to server receipt — absolute
// monotonic timestamps are meaningless across processes; 0 means no
// deadline. Frames are bounded (kMaxPayloadBytes) and every field is
// parsed through the bounds-checked util::PayloadReader, so a malformed
// or truncated frame raises a typed error before any oversized allocation
// — the same hardening discipline as the dataset loaders.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/error.hpp"

namespace lehdc::serve {

inline constexpr char kRequestMagicV2[4] = {'L', 'S', 'R', '2'};
inline constexpr char kResponseMagicV2[4] = {'L', 'S', 'S', '2'};
inline constexpr char kFeedbackMagicV2[4] = {'L', 'S', 'F', '2'};

/// Generation stamped on every request and response frame
/// (FrameDecoder::Frame::version); the payload decoders reject any other.
inline constexpr int kWireVersion = 2;

/// FrameDecoder::Frame::version value for an LSF2 feedback frame on the
/// request stream.
inline constexpr int kFeedbackFrameKind = 3;

/// Upper bound on a frame payload (16 MiB ≈ 4M float features) — an
/// admission check against hostile length prefixes.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u * 1024u * 1024u;

struct WireRequest {
  std::uint64_t id = 0;
  /// Microseconds the client grants from server receipt; 0 = no deadline.
  std::uint64_t deadline_budget_us = 0;
  /// Target tenant id; empty selects the server's default tenant.
  std::string tenant;
  std::vector<float> features;
};

/// Label feedback for an earlier prediction. Travels client→server as an
/// "LSF2" frame interleaved with requests on the same stream:
///
///   LSF2 payload := u64 id | u16 tenant_length | tenant bytes | i32 label
///
/// `id` + `tenant` must match a previously served request (the correlation
/// key is the pair, so one tenant can never relabel another's traffic).
/// The server acknowledges with a normal response frame: id echoed,
/// status kNone on acceptance or kUnknownCorrelation on a typed reject,
/// label -1 (a feedback ack predicts nothing).
struct WireFeedback {
  std::uint64_t id = 0;
  /// Tenant the original request was served under; empty selects the
  /// server's default tenant (matching request routing).
  std::string tenant;
  /// Ground-truth class label observed after the prediction.
  std::int32_t label = 0;
};

/// Serializes one complete frame (header + payload).
[[nodiscard]] std::string encode_request(const WireRequest& request);
[[nodiscard]] std::string encode_response(const Response& response);
[[nodiscard]] std::string encode_feedback(const WireFeedback& feedback);

/// Parses a frame payload (the bytes after the length prefix). `version`
/// is the FrameDecoder::Frame::version it arrived as and must be
/// kWireVersion. `context` names the source for error messages. Throws
/// std::runtime_error on a malformed payload or any other version.
[[nodiscard]] WireRequest decode_request_payload(std::string_view payload,
                                                 int version,
                                                 const std::string& context);
[[nodiscard]] Response decode_response_payload(std::string_view payload,
                                               int version,
                                               const std::string& context);
[[nodiscard]] WireFeedback decode_feedback_payload(
    std::string_view payload, const std::string& context);

/// One inbound message on the request stream: a request frame or a
/// feedback frame (clients interleave both on one connection).
struct ClientFrame {
  /// kFeedbackFrameKind selects `feedback`; kWireVersion selects
  /// `request`.
  int kind = 0;
  WireRequest request;
  WireFeedback feedback;

  [[nodiscard]] bool is_feedback() const noexcept {
    return kind == kFeedbackFrameKind;
  }
};

/// Reads one frame from a stream. Returns false on clean EOF at a frame
/// boundary; throws std::runtime_error on a bad magic, an oversized
/// length, or EOF mid-frame.
bool read_request(std::istream& in, WireRequest* out,
                  const std::string& context);
bool read_response(std::istream& in, Response* out,
                   const std::string& context);
/// Like read_request but also accepts LSF2 feedback frames, reporting
/// which arrived via ClientFrame::kind.
bool read_client_frame(std::istream& in, ClientFrame* out,
                       const std::string& context);

/// Writes one frame; throws std::runtime_error when the stream fails.
void write_request(std::ostream& out, const WireRequest& request);
void write_response(std::ostream& out, const Response& response);
void write_feedback(std::ostream& out, const WireFeedback& feedback);

}  // namespace lehdc::serve
