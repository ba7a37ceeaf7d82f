// Incremental wire framing: the transport-agnostic half of the protocol.
//
// protocol.hpp defines the frame grammar (magic | u32 size | payload, one
// magic per direction plus LSF2 feedback on the request stream); this header owns *delivery*: turning an
// arbitrary sequence of partial reads into whole frames (FrameDecoder) and
// a queue of whole frames into resumable partial writes (FrameEncoder).
// Neither class assumes a blocking stream — the epoll event loop feeds the
// decoder whatever recv() returned and drains the encoder by whatever
// write() accepted, while the blocking istream readers in protocol.cpp run
// the very same state machine with exact-sized reads (bytes_needed()), so
// there is exactly one framing implementation to harden and fuzz.
//
// Both sides reuse their buffers across frames: steady-state decode of
// small frames does no allocation beyond the first, and a connection's
// frame memory is bounded by 8 + kMaxPayloadBytes on the read side and the
// caller-enforced backlog cap on the write side. The 16 MiB payload cap
// and the magic check are enforced at header parse — before any payload
// byte is buffered — so a hostile length prefix or interleaved garbage is
// a typed std::runtime_error, never an allocation.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace lehdc::serve {

/// Reassembles whole frames from partial reads. Accepts the magic of one
/// direction (request or response; see the factories below), plus an
/// optional extra magic, and reports which of the two each frame carried.
class FrameDecoder {
 public:
  /// One complete frame. `payload` points into the decoder's buffer and
  /// is valid until the next feed()/next()/reset() call.
  struct Frame {
    /// kWireVersion for the direction's magic, kFeedbackFrameKind for
    /// the extra one.
    int version = 0;
    std::string_view payload;
  };

  /// `context` names the byte source for error messages. `magic_extra`
  /// optionally accepts a second magic reported as version
  /// kFeedbackFrameKind — the request direction carries LSF2 feedback
  /// frames interleaved with LSR2 on the same stream.
  FrameDecoder(const char magic[4], std::string context,
               const char* magic_extra = nullptr);

  /// Appends raw bytes from the transport. The decoder never rejects a
  /// feed; validation happens in next() at frame-header granularity.
  void feed(std::string_view bytes);

  /// Extracts the next complete frame. Returns false when the buffered
  /// bytes end mid-frame (feed more and retry). Throws std::runtime_error
  /// on a bad magic or an oversized length — the stream cannot be
  /// re-synchronized past either, so the caller must drop the connection.
  [[nodiscard]] bool next(Frame* out);

  /// Minimum additional bytes that could complete the current frame: the
  /// rest of the 8-byte header, or the rest of a payload whose header has
  /// parsed. Lets a blocking reader issue exact-sized reads; an event
  /// loop just ignores it and feeds whatever arrived.
  [[nodiscard]] std::size_t bytes_needed() const noexcept;

  /// Bytes currently buffered (the partial frame, if any). EOF from the
  /// transport while mid_frame() is a truncated stream, not a clean close.
  [[nodiscard]] std::size_t buffered() const noexcept;
  [[nodiscard]] bool mid_frame() const noexcept { return buffered() > 0; }

  /// Drops all buffered bytes and returns to the frame boundary.
  void reset() noexcept;

 private:
  char magic_[4];
  char magic_extra_[4];
  bool has_extra_ = false;
  std::string context_;
  std::string buffer_;
  /// Bytes of buffer_ already consumed by returned frames; compacted on
  /// the next feed() so returned payload views stay valid in between.
  std::size_t pos_ = 0;
};

/// Decoder for request frames (LSR2), plus LSF2 feedback frames
/// reported as version kFeedbackFrameKind.
[[nodiscard]] FrameDecoder make_request_decoder(std::string context);
/// Decoder for response frames (LSS2).
[[nodiscard]] FrameDecoder make_response_decoder(std::string context);

/// Write-side backlog with short-write resume. Whole encoded frames go in
/// (push), the transport takes however many bytes the kernel accepts out
/// (pending + consume). Frames always leave in push order and are never
/// interleaved, so per-connection response ordering is the caller's only
/// concern. The encoder itself is unbounded; callers enforce their
/// backlog cap via backlog_bytes() *before* pushing (Connection sheds
/// with a typed reject instead of growing the queue).
class FrameEncoder {
 public:
  /// Queues one fully encoded frame (header + payload).
  void push(std::string frame);

  /// The next contiguous run of unwritten bytes (a suffix of the oldest
  /// pending frame); empty when nothing is queued. Valid until the next
  /// push()/consume() call.
  [[nodiscard]] std::string_view pending() const noexcept;

  /// Marks `n` bytes of pending() as written (n may be any amount the
  /// transport accepted, including 0). Throws std::logic_error if n
  /// exceeds the pending run.
  void consume(std::size_t n);

  /// Total unwritten bytes across all queued frames.
  [[nodiscard]] std::size_t backlog_bytes() const noexcept {
    return backlog_;
  }
  [[nodiscard]] bool empty() const noexcept { return backlog_ == 0; }

 private:
  std::deque<std::string> frames_;
  /// Bytes of frames_.front() already written.
  std::size_t front_offset_ = 0;
  std::size_t backlog_ = 0;
};

}  // namespace lehdc::serve
