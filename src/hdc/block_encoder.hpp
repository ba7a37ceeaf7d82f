// Block-encode surface: whole sample blocks, one word range at a time.
//
// Encoder::encode() is sample-at-a-time and materializes a full D-bit
// hypervector per call, which makes encoding memory-bandwidth bound: every
// sample streams the entire position item memory (N·D bits) through the
// cache. BlockEncoder turns the loop inside out. A cursor binds to a block
// of S samples and emits their packed hypervector words a word range at a
// time, so the stored position words for a range are gathered once per
// block instead of once per sample, and the gathered slice stays L2-sized.
//
// BlockEncodeWorker is the one raw-sample encode routine built on it:
// training encode (encode_dataset), batch predict and serving
// (BatchScorer::predict_queries) all encode through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace lehdc::data {
class Dataset;
}  // namespace lehdc::data

namespace lehdc::hv {
class BitVector;
}  // namespace lehdc::hv

namespace lehdc::hdc {

class Encoder;

/// Streaming cursor over the packed hypervector words of a sample block.
/// Obtained from BlockEncoder::make_cursor and reusable across blocks:
/// begin() rebinds without allocation after the first block. Not thread
/// safe; use one cursor per worker.
class BlockEncodeCursor {
 public:
  virtual ~BlockEncodeCursor() = default;

  /// Binds to `count` samples stored row-major in `features` (the layout
  /// data::Dataset::rows returns) and rewinds to word 0. Precondition:
  /// features.size() == count * feature_count, count >= 1.
  virtual void begin(std::span<const float> features, std::size_t count) = 0;

  /// Encodes the next up-to-`words` packed words of every bound sample into
  /// `out`, tightly row-major: sample s's words land at out[s * produced].
  /// Returns `produced` — less than `words` only at the end of the
  /// hypervector, 0 once it is exhausted. Tail bits past the logical
  /// dimension are zero, matching BitVector's invariant. Precondition:
  /// out.size() >= count * min(words, words remaining).
  virtual std::size_t encode_words(std::size_t words,
                                   std::span<std::uint64_t> out) = 0;
};

/// Implemented by encoders that can emit word ranges of whole sample blocks
/// without materializing per-sample hypervectors (RecordEncoder today).
/// Consumers discover the capability with dynamic_cast from Encoder and
/// fall back to per-sample encode() otherwise.
class BlockEncoder {
 public:
  virtual ~BlockEncoder() = default;

  /// Packed words per encoded hypervector, ceil(dim / 64).
  [[nodiscard]] virtual std::size_t word_count() const noexcept = 0;

  /// Item-memory bytes one sample's encode gathers when cursors process
  /// `block_samples` samples per begin(): each position range is copied once
  /// per block, so the N·W·8 position bytes are shared by the block. The
  /// figure behind the encode.bytes_per_sample metric and the bench report.
  [[nodiscard]] virtual std::size_t encode_bytes_per_sample(
      std::size_t block_samples) const noexcept = 0;

  /// A fresh cursor over this encoder.
  [[nodiscard]] virtual std::unique_ptr<BlockEncodeCursor> make_cursor()
      const = 0;
};

/// Samples per encode block: the unit of work a worker claims, the
/// population a cursor shares each gathered position range over, and the
/// most hypervectors a scoring worker holds at once.
inline constexpr std::size_t kEncodeBlockSamples = 64;

/// Words per encode_words() step that keep a cursor's item-memory working
/// set cache-resident: the per-range position scratch (feature_count rows ×
/// range words) is capped at 256 KiB, floored at 8 words, capped at the full
/// hypervector. At paper scale (N=784, D=10k) this yields 41-word ranges.
[[nodiscard]] std::size_t block_range_words(std::size_t feature_count,
                                            std::size_t word_count) noexcept;

/// The one raw-sample encode routine. Each worker owns one and encodes
/// blocks of up to kEncodeBlockSamples samples with it: a BlockEncoder runs
/// one cursor pass per block in block_range_words steps, copying each range
/// into the output hypervectors; any other encoder falls back to per-sample
/// encode(). Every block adds its sample count to encode.samples and one
/// observation to encode.block_seconds. Reusable across blocks; not thread
/// safe. The encoder must outlive the worker.
class BlockEncodeWorker {
 public:
  explicit BlockEncodeWorker(const Encoder& encoder);

  /// Encodes samples [begin, begin + out.size()) of `samples` into `out`,
  /// resizing any hypervector whose dimension differs from the encoder's.
  /// Preconditions: 1 <= out.size() <= kEncodeBlockSamples; the samples
  /// exist and match the encoder's feature count.
  void encode(const data::Dataset& samples, std::size_t begin,
              std::span<hv::BitVector> out);

 private:
  const Encoder& encoder_;
  std::unique_ptr<BlockEncodeCursor> cursor_;
  std::size_t range_words_ = 0;
  std::vector<std::uint64_t> range_buf_;
};

// Compatibility shim for perfbench/src/common.cpp's fill_context, which
// still names these to report an `encode_path_*` context line. Nothing in
// src/ takes an EncodePath: there is one encode path, the stored rows.
// Delete both with the next change to the benchmark.
enum class EncodePath { kAuto, kMaterialized, kRematerialized };

/// Always kMaterialized; see the shim note above.
[[nodiscard]] inline EncodePath resolve_encode_path(
    EncodePath /*requested*/, std::size_t /*samples*/) noexcept {
  return EncodePath::kMaterialized;
}

}  // namespace lehdc::hdc
