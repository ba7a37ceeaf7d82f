// Item memories (Sec. 2): the random hypervector codebooks an HDC encoder
// draws from.
//
//  * PositionMemory 𝓕 — one quasi-orthogonal hypervector per feature
//    position (Hamm(𝓕_i, 𝓕_j) ≈ 0.5 for i ≠ j).
//  * LevelMemory 𝓥 — one hypervector per quantized feature value with
//    Hamm(𝓥_a, 𝓥_b) ∝ |a − b| (correlated codebook).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hv/bitvector.hpp"
#include "hv/generate.hpp"
#include "util/rng.hpp"

namespace lehdc::hdc {

/// Feature position codebook 𝓕.
///
/// Rows are generated sequentially from one seeded stream, one rng.next()
/// per packed storage word (BitVector::randomize).
class PositionMemory {
 public:
  /// Generates `feature_count` independent random hypervectors.
  PositionMemory(std::size_t feature_count, std::size_t dim,
                 std::uint64_t seed);

  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Hypervector for feature position i. Precondition: i < size().
  [[nodiscard]] const hv::BitVector& at(std::size_t i) const;

 private:
  std::size_t dim_;
  std::vector<hv::BitVector> items_;
};

/// Feature value codebook 𝓥 with a linear quantizer over [lo, hi].
class LevelMemory {
 public:
  /// Generates a chain of `levels` correlated hypervectors covering the
  /// value range [lo, hi]. Preconditions: levels >= 2, lo < hi.
  LevelMemory(std::size_t levels, std::size_t dim, float lo, float hi,
              std::uint64_t seed);

  [[nodiscard]] std::size_t levels() const noexcept { return items_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] float range_lo() const noexcept { return lo_; }
  [[nodiscard]] float range_hi() const noexcept { return hi_; }

  /// Level index for a raw feature value; values outside [lo, hi] clamp to
  /// the boundary levels.
  [[nodiscard]] std::size_t quantize(float value) const noexcept;

  /// Hypervector for level index q. Precondition: q < levels().
  [[nodiscard]] const hv::BitVector& at(std::size_t q) const;

  /// Hypervector for a raw feature value (quantize + lookup).
  [[nodiscard]] const hv::BitVector& for_value(float value) const noexcept;

 private:
  std::size_t dim_;
  float lo_;
  float hi_;
  std::vector<hv::BitVector> items_;
};

}  // namespace lehdc::hdc
