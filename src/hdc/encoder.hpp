// HDC encoders: ℝ^N → {−1, +1}^D.
//
// RecordEncoder implements Eq. 1 of the paper (the record-based encoding the
// evaluation uses): bind each feature's position hypervector with its
// quantized value hypervector and take the component-wise sign of the sum.
// NgramEncoder is the N-gram alternative mentioned in Sec. 2 (permute +
// bind sliding windows of value hypervectors, then bundle the windows).
// LeHDC never modifies encoding (Sec. 4), so the same encoder instance is
// shared by every training strategy in a comparison.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "hdc/block_encoder.hpp"
#include "hdc/item_memory.hpp"
#include "hv/bitslice.hpp"
#include "hv/bitvector.hpp"

namespace lehdc::hdc {

/// Interface shared by all encoders. Implementations are immutable after
/// construction and safe to call concurrently from multiple threads.
class Encoder {
 public:
  virtual ~Encoder() = default;

  /// Hypervector dimension D.
  [[nodiscard]] virtual std::size_t dim() const noexcept = 0;

  /// Number of input features N expected by encode().
  [[nodiscard]] virtual std::size_t feature_count() const noexcept = 0;

  /// Encodes one sample. Precondition: features.size() == feature_count().
  [[nodiscard]] virtual hv::BitVector encode(
      std::span<const float> features) const = 0;
};

struct RecordEncoderConfig {
  std::size_t dim = 10000;       // hypervector dimension D
  std::size_t feature_count = 0; // input features N (required)
  std::size_t levels = 32;       // value quantization levels Q
  float range_lo = 0.0f;         // feature value range [lo, hi]
  float range_hi = 1.0f;
  std::uint64_t seed = 1;        // seeds 𝓕, 𝓥 and the sgn(0) tie-break
};

/// Record-based encoder (Eq. 1): H = sgn(Σ_i 𝓕_i ∘ 𝓥_{f_i}).
///
/// Also a BlockEncoder: its cursors encode sample blocks a word range at a
/// time, gathering each range of the stored position rows once per block.
/// They produce the exact bits of encode(), which is itself a one-sample
/// cursor pass.
class RecordEncoder final : public Encoder, public BlockEncoder {
 public:
  explicit RecordEncoder(const RecordEncoderConfig& config);

  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t feature_count() const noexcept override;
  [[nodiscard]] hv::BitVector encode(
      std::span<const float> features) const override;

  [[nodiscard]] std::size_t word_count() const noexcept override;
  [[nodiscard]] std::size_t encode_bytes_per_sample(
      std::size_t block_samples) const noexcept override;
  [[nodiscard]] std::unique_ptr<BlockEncodeCursor> make_cursor()
      const override;

  [[nodiscard]] const PositionMemory& positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] const LevelMemory& levels() const noexcept { return levels_; }

  /// The exact configuration this encoder was built from. Because all item
  /// memories derive deterministically from config.seed, persisting the
  /// config is enough to rebuild a bit-identical encoder elsewhere.
  [[nodiscard]] const RecordEncoderConfig& config() const noexcept {
    return config_;
  }

  /// Fixed random hypervector used to break sgn(0) ties reproducibly.
  [[nodiscard]] const hv::BitVector& tie_break() const noexcept {
    return tie_break_;
  }

 private:
  RecordEncoderConfig config_;
  PositionMemory positions_;
  LevelMemory levels_;
  hv::BitVector tie_break_;
};

struct NgramEncoderConfig {
  std::size_t dim = 10000;
  std::size_t feature_count = 0;
  std::size_t levels = 32;
  std::size_t ngram = 3;  // window length
  float range_lo = 0.0f;
  float range_hi = 1.0f;
  std::uint64_t seed = 1;
};

/// N-gram encoder: each window (f_i, ..., f_{i+n-1}) becomes
/// ρ^{n-1}(𝓥_{f_i}) ∘ ... ∘ ρ^0(𝓥_{f_{i+n-1}}) where ρ is cyclic rotation;
/// the windows are bundled with a majority vote.
class NgramEncoder final : public Encoder {
 public:
  explicit NgramEncoder(const NgramEncoderConfig& config);

  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t feature_count() const noexcept override;
  [[nodiscard]] hv::BitVector encode(
      std::span<const float> features) const override;

 private:
  std::size_t feature_count_;
  std::size_t ngram_;
  LevelMemory levels_;
  hv::BitVector tie_break_;
};

}  // namespace lehdc::hdc
