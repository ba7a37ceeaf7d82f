#include "serve/protocol.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "serve/framing.hpp"
#include "serve/tenant.hpp"
#include "util/serial.hpp"

namespace lehdc::serve {

namespace {

std::string frame(const char magic[4], const util::PayloadWriter& payload) {
  std::string out;
  out.reserve(8 + payload.size());
  out.append(magic, 4);
  const auto size = static_cast<std::uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&size), sizeof(size));
  out.append(payload.str());
  return out;
}

/// Reads one frame body into `payload`, reporting which magic matched via
/// `*version` (kWireVersion, or kFeedbackFrameKind for `magic_extra`).
/// Returns false on clean EOF before any header byte; throws on
/// everything else that is not a whole frame. Runs the incremental
/// FrameDecoder with exact-sized reads (bytes_needed()), so the blocking
/// readers and the event loop share one framing state machine — and the
/// stream is left at the following frame boundary, never over-read.
bool read_frame(std::istream& in, const char magic[4], int* version,
                std::string* payload, const std::string& context,
                const char* magic_extra = nullptr) {
  FrameDecoder decoder(magic, context, magic_extra);
  char header[8];
  in.read(header, sizeof(header));
  if (in.gcount() == 0 && in.eof()) {
    return false;
  }
  if (in.gcount() != static_cast<std::streamsize>(sizeof(header))) {
    throw std::runtime_error("truncated frame header in " + context);
  }
  decoder.feed({header, sizeof(header)});
  FrameDecoder::Frame frame;
  // next() validates magic + length from the header (typed errors), then
  // reports how many payload bytes remain; one exact read completes it.
  while (!decoder.next(&frame)) {
    const std::size_t need = decoder.bytes_needed();
    std::string chunk(need, '\0');
    in.read(chunk.data(), static_cast<std::streamsize>(need));
    if (in.gcount() != static_cast<std::streamsize>(need)) {
      throw std::runtime_error("truncated frame payload in " + context);
    }
    decoder.feed(chunk);
  }
  *version = frame.version;
  payload->assign(frame.payload);
  return true;
}

void check_version(int version, const std::string& context) {
  if (version != kWireVersion) {
    throw std::runtime_error("unknown frame version " +
                             std::to_string(version) + " in " + context);
  }
}

void check_tenant(const std::string& tenant, const std::string& context) {
  // An empty tenant routes to the server default; anything else must be a
  // well-formed id so it can never smuggle bytes into logs or metric names.
  if (!tenant.empty() && !valid_tenant_id(tenant)) {
    throw std::runtime_error("invalid tenant id in " + context);
  }
}

}  // namespace

std::string encode_request(const WireRequest& request) {
  check_tenant(request.tenant, "encode_request");
  util::PayloadWriter payload;
  payload.pod<std::uint64_t>(request.id);
  payload.pod<std::uint64_t>(request.deadline_budget_us);
  payload.pod<std::uint16_t>(
      static_cast<std::uint16_t>(request.tenant.size()));
  payload.bytes(request.tenant.data(), request.tenant.size());
  payload.pod<std::uint32_t>(
      static_cast<std::uint32_t>(request.features.size()));
  payload.bytes(request.features.data(),
                request.features.size() * sizeof(float));
  return frame(kRequestMagicV2, payload);
}

std::string encode_feedback(const WireFeedback& feedback) {
  check_tenant(feedback.tenant, "encode_feedback");
  util::PayloadWriter payload;
  payload.pod<std::uint64_t>(feedback.id);
  payload.pod<std::uint16_t>(
      static_cast<std::uint16_t>(feedback.tenant.size()));
  payload.bytes(feedback.tenant.data(), feedback.tenant.size());
  payload.pod<std::int32_t>(feedback.label);
  return frame(kFeedbackMagicV2, payload);
}

std::string encode_response(const Response& response) {
  check_tenant(response.tenant, "encode_response");
  util::PayloadWriter payload;
  payload.pod<std::uint64_t>(response.id);
  payload.pod<std::uint8_t>(static_cast<std::uint8_t>(response.error));
  payload.pod<std::int32_t>(response.label);
  payload.pod<std::uint32_t>(response.batch_size);
  payload.pod<double>(response.latency_seconds);
  payload.pod<std::uint16_t>(
      static_cast<std::uint16_t>(response.tenant.size()));
  payload.bytes(response.tenant.data(), response.tenant.size());
  return frame(kResponseMagicV2, payload);
}

WireRequest decode_request_payload(std::string_view payload, int version,
                                   const std::string& context) {
  check_version(version, context);
  util::PayloadReader reader(payload, context);
  WireRequest request;
  request.id = reader.pod<std::uint64_t>();
  request.deadline_budget_us = reader.pod<std::uint64_t>();
  const auto tenant_length = reader.pod<std::uint16_t>();
  if (tenant_length > kMaxTenantIdBytes) {
    throw std::runtime_error("oversized tenant id in " + context);
  }
  request.tenant.resize(tenant_length);
  reader.bytes(request.tenant.data(), tenant_length);
  check_tenant(request.tenant, context);
  const auto feature_count = reader.pod<std::uint32_t>();
  // The reader bounds-checks the bulk read, so a lying feature_count can
  // never trigger an allocation beyond the (already bounded) payload.
  if (static_cast<std::size_t>(feature_count) * sizeof(float) >
      reader.remaining()) {
    throw std::runtime_error("feature count overruns payload in " + context);
  }
  request.features.resize(feature_count);
  reader.bytes(request.features.data(), feature_count * sizeof(float));
  reader.expect_done();
  return request;
}

Response decode_response_payload(std::string_view payload, int version,
                                 const std::string& context) {
  check_version(version, context);
  util::PayloadReader reader(payload, context);
  Response response;
  response.id = reader.pod<std::uint64_t>();
  const auto status = reader.pod<std::uint8_t>();
  if (status > static_cast<std::uint8_t>(Reject::kUnknownCorrelation)) {
    throw std::runtime_error("unknown response status in " + context);
  }
  response.error = static_cast<Reject>(status);
  response.label = reader.pod<std::int32_t>();
  response.batch_size = reader.pod<std::uint32_t>();
  response.latency_seconds = reader.pod<double>();
  const auto tenant_length = reader.pod<std::uint16_t>();
  if (tenant_length > kMaxTenantIdBytes) {
    throw std::runtime_error("oversized tenant id in " + context);
  }
  response.tenant.resize(tenant_length);
  reader.bytes(response.tenant.data(), tenant_length);
  check_tenant(response.tenant, context);
  reader.expect_done();
  return response;
}

WireFeedback decode_feedback_payload(std::string_view payload,
                                     const std::string& context) {
  util::PayloadReader reader(payload, context);
  WireFeedback feedback;
  feedback.id = reader.pod<std::uint64_t>();
  const auto tenant_length = reader.pod<std::uint16_t>();
  if (tenant_length > kMaxTenantIdBytes) {
    throw std::runtime_error("oversized tenant id in " + context);
  }
  feedback.tenant.resize(tenant_length);
  reader.bytes(feedback.tenant.data(), tenant_length);
  check_tenant(feedback.tenant, context);
  feedback.label = reader.pod<std::int32_t>();
  reader.expect_done();
  return feedback;
}

bool read_request(std::istream& in, WireRequest* out,
                  const std::string& context) {
  std::string payload;
  int version = 0;
  if (!read_frame(in, kRequestMagicV2, &version, &payload, context)) {
    return false;
  }
  *out = decode_request_payload(payload, version, context);
  return true;
}

bool read_client_frame(std::istream& in, ClientFrame* out,
                       const std::string& context) {
  std::string payload;
  int version = 0;
  if (!read_frame(in, kRequestMagicV2, &version, &payload, context,
                  kFeedbackMagicV2)) {
    return false;
  }
  out->kind = version;
  if (version == kFeedbackFrameKind) {
    out->feedback = decode_feedback_payload(payload, context);
  } else {
    out->request = decode_request_payload(payload, version, context);
  }
  return true;
}

bool read_response(std::istream& in, Response* out,
                   const std::string& context) {
  std::string payload;
  int version = 0;
  if (!read_frame(in, kResponseMagicV2, &version, &payload, context)) {
    return false;
  }
  *out = decode_response_payload(payload, version, context);
  return true;
}

void write_request(std::ostream& out, const WireRequest& request) {
  const std::string bytes = encode_request(request);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("failed to write request frame");
  }
}

void write_response(std::ostream& out, const Response& response) {
  const std::string bytes = encode_response(response);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("failed to write response frame");
  }
}

void write_feedback(std::ostream& out, const WireFeedback& feedback) {
  const std::string bytes = encode_feedback(feedback);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("failed to write feedback frame");
  }
}

}  // namespace lehdc::serve
