#include "serve/framing.hpp"

#include <cstring>
#include <stdexcept>

#include "serve/protocol.hpp"

namespace lehdc::serve {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // 4-byte magic + u32 payload size

}  // namespace

FrameDecoder::FrameDecoder(const char magic[4], std::string context,
                           const char* magic_extra)
    : context_(std::move(context)) {
  std::memcpy(magic_, magic, sizeof(magic_));
  if (magic_extra != nullptr) {
    std::memcpy(magic_extra_, magic_extra, sizeof(magic_extra_));
    has_extra_ = true;
  }
}

void FrameDecoder::feed(std::string_view bytes) {
  // Compact the consumed prefix before growing: the buffer never holds
  // more than one partial frame plus whatever the transport just handed
  // over, so per-connection decode memory stays bounded by
  // kHeaderBytes + kMaxPayloadBytes + one read's worth of pipelined bytes.
  if (pos_ > 0) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes.data(), bytes.size());
}

bool FrameDecoder::next(Frame* out) {
  const std::size_t available = buffer_.size() - pos_;
  if (available < kHeaderBytes) {
    return false;
  }
  const char* header = buffer_.data() + pos_;
  int version = 0;
  if (std::memcmp(header, magic_, 4) == 0) {
    version = kWireVersion;
  } else if (has_extra_ && std::memcmp(header, magic_extra_, 4) == 0) {
    version = kFeedbackFrameKind;
  } else {
    throw std::runtime_error("bad frame magic in " + context_);
  }
  std::uint32_t size = 0;
  std::memcpy(&size, header + 4, sizeof(size));
  if (size > kMaxPayloadBytes) {
    throw std::runtime_error("oversized frame (" + std::to_string(size) +
                             " bytes) in " + context_);
  }
  if (available < kHeaderBytes + size) {
    return false;
  }
  out->version = version;
  out->payload = std::string_view(header + kHeaderBytes, size);
  pos_ += kHeaderBytes + size;
  return true;
}

std::size_t FrameDecoder::bytes_needed() const noexcept {
  const std::size_t available = buffer_.size() - pos_;
  if (available < kHeaderBytes) {
    return kHeaderBytes - available;
  }
  std::uint32_t size = 0;
  std::memcpy(&size, buffer_.data() + pos_ + 4, sizeof(size));
  // An oversized or garbage header still reports a positive need; next()
  // raises the typed error when the caller actually parses it.
  const std::size_t want = kHeaderBytes + std::min<std::size_t>(
                                              size, kMaxPayloadBytes + 1);
  return want > available ? want - available : 0;
}

std::size_t FrameDecoder::buffered() const noexcept {
  return buffer_.size() - pos_;
}

void FrameDecoder::reset() noexcept {
  buffer_.clear();
  pos_ = 0;
}

FrameDecoder make_request_decoder(std::string context) {
  return {kRequestMagicV2, std::move(context), kFeedbackMagicV2};
}

FrameDecoder make_response_decoder(std::string context) {
  return {kResponseMagicV2, std::move(context)};
}

void FrameEncoder::push(std::string frame) {
  if (frame.empty()) {
    return;
  }
  backlog_ += frame.size();
  frames_.push_back(std::move(frame));
}

std::string_view FrameEncoder::pending() const noexcept {
  if (frames_.empty()) {
    return {};
  }
  const std::string& front = frames_.front();
  return std::string_view(front).substr(front_offset_);
}

void FrameEncoder::consume(std::size_t n) {
  if (n > pending().size()) {
    throw std::logic_error("FrameEncoder::consume past the pending run");
  }
  front_offset_ += n;
  backlog_ -= n;
  if (!frames_.empty() && front_offset_ == frames_.front().size()) {
    frames_.pop_front();
    front_offset_ = 0;
  }
}

}  // namespace lehdc::serve
