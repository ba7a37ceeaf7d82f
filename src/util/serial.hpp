// In-memory payload (de)serialization for the checksummed file formats.
//
// Every durable artifact in this library (LHDC/LHDE models, LHDP pipeline
// bundles, LHCK training checkpoints) is laid out as
//
//   magic | u32 version | u64 payload_size | payload | u32 crc32(payload)
//
// The payload is built in memory with PayloadWriter (so the CRC can be
// computed before any byte hits disk) and parsed with PayloadReader (which
// bounds-checks every read and reports the offending offset). Integers are
// written little-endian via memcpy of the native representation; the
// library targets little-endian platforms.
#pragma once

#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace lehdc::util {

/// Appends POD values and raw byte runs to a growing byte buffer.
class PayloadWriter {
 public:
  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    buffer_.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void bytes(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  [[nodiscard]] const std::string& str() const noexcept { return buffer_; }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Sequentially parses a byte buffer; every read is bounds-checked and a
/// short buffer throws std::runtime_error naming the context (usually the
/// file path) and the byte offset where data ran out.
class PayloadReader {
 public:
  PayloadReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  template <typename T>
  [[nodiscard]] T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    bytes(&value, sizeof(T));
    return value;
  }

  void bytes(void* out, std::size_t size) {
    if (size > data_.size() - pos_) {
      throw std::runtime_error("truncated payload in " + context_ +
                               " (need " + std::to_string(size) +
                               " bytes at offset " + std::to_string(pos_) +
                               ", have " +
                               std::to_string(data_.size() - pos_) + ")");
    }
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
  }

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

  /// Remaining unread bytes as a view (used to hand an embedded blob to a
  /// nested parser).
  [[nodiscard]] std::string_view rest() const noexcept {
    return data_.substr(pos_);
  }

  /// Declares parsing complete; trailing garbage means a malformed file.
  void expect_done() const {
    if (pos_ != data_.size()) {
      throw std::runtime_error(
          "malformed payload in " + context_ + ": " +
          std::to_string(data_.size() - pos_) +
          " unexpected trailing bytes at offset " + std::to_string(pos_));
    }
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace lehdc::util
