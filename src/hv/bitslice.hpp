// Bit-sliced majority bundling.
//
// Record-based encoding (Eq. 1) bundles N bound hypervectors with a
// component-wise majority vote. The naive approach keeps D integer counters
// and costs O(N·D) scalar adds per sample; at D = 10,000 and N = 784 that
// dominates encoding time. Instead the counters are kept *bit-sliced*:
// plane p holds bit p of all D counters packed into D/64 words. Inputs are
// added sixteen at a time through a Harley–Seal carry-save adder tree whose
// low planes (ones, twos, fours, eights) stay in registers, so the higher
// counter planes are touched once per sixteen inputs — the adder-tree
// structure a hardware HDC encoder uses (Schmuck, Benini & Rahimi). The
// same core serves the fused record-encode kernel (bind_bundle_majority)
// and the general accumulator (BitSliceAccumulator); both dispatch at
// runtime to the widest tier in hv/kernels.hpp.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "hv/bitvector.hpp"
#include "hv/intvector.hpp"
#include "hv/kernels.hpp"

namespace lehdc::hv {

/// Word-parallel majority threshold over bit-sliced counters.
///
/// `planes` holds `plane_count` bit-planes of `words` packed words each,
/// plane-major (plane p starts at planes[p * words]): bit b of plane p is
/// bit p of the counter for lane b of that word. For every lane the output
/// bit is 1 iff its counter is strictly greater than added/2; exact ties
/// (possible only for even `added`) take the corresponding `tie_break` bit.
/// All 64 lanes of a word are resolved together with the classic bit-sliced
/// greater/equal comparison walked from the most significant plane down, so
/// the cost is O(plane_count) word ops per word instead of O(64·plane_count)
/// single-bit probes. Lanes whose counter is 0 come out 0 whenever added > 0.
/// Preconditions: added > 0, out has `words` slots, tie_break has `words`
/// words (it is only read when `added` is even).
void majority_words(const std::uint64_t* planes, std::size_t plane_count,
                    std::size_t words, std::size_t added,
                    const std::uint64_t* tie_break, std::uint64_t* out);

/// Fused bind → bundle → majority over one word range, the compute core of
/// block encoding (hdc::BlockEncoder):
///
///   out[w] = majority_{i<n}(pos[i*pos_stride + w] ^ rows[i][row_offset + w])
///
/// for w < range.words, with majority_words' threshold and tie rule (ties
/// take tie_break[w]). Word-major: each lane of consecutive words streams
/// all n inputs through the carry-save tree before the next lane starts, so
/// no bound hypervector is ever materialized. Preconditions (unchecked —
/// this is the inner kernel): n >= 1, out has range.words slots.
void bind_bundle_majority(const BindBundleRange& range, std::uint64_t* out);

/// Majority accumulator over whole hypervectors. Rows are buffered and
/// folded into the counter planes sixteen at a time by the carry-save core;
/// every observer (count, majority, to_int_vector) sees the pending rows.
class BitSliceAccumulator {
 public:
  explicit BitSliceAccumulator(std::size_t dim = 0);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Number of hypervectors added so far.
  [[nodiscard]] std::size_t added() const noexcept { return added_; }

  /// Adds one bipolar hypervector: each counter i accumulates the *bit*
  /// (1 for a −1 component, 0 for +1); majority of bits over N additions
  /// equals the sign-majority over bipolar values.
  void add(const BitVector& hv);

  /// Resets to an empty accumulator of the same dimension.
  void reset() noexcept;

  /// Counter value at component i (number of −1 votes). Precondition: i < D.
  [[nodiscard]] std::size_t count(std::size_t i) const;

  /// Majority threshold: component i of the result is −1 iff the number of
  /// −1 votes is strictly greater than added()/2; exact ties (even N only)
  /// take the corresponding component of `tie_break` (paper: sgn(0) is
  /// random). Precondition: at least one hypervector was added.
  [[nodiscard]] BitVector majority(const BitVector& tie_break) const;

  /// Converts the counters to the bipolar integer sum
  /// sum_i = (#(+1 votes) − #(−1 votes)) = N − 2·count.
  [[nodiscard]] IntVector to_int_vector() const;

  /// Number of counter bit-planes the counts occupy: bit_width(added()).
  [[nodiscard]] std::size_t plane_count() const noexcept;

 private:
  static constexpr std::size_t kPendingRows = 16;

  /// The counter planes with the pending rows folded in; sets
  /// `plane_count` to the number of planes returned.
  [[nodiscard]] std::vector<std::uint64_t> settled_planes(
      std::size_t& plane_count) const;

  std::size_t dim_;
  std::size_t words_;
  std::size_t added_ = 0;
  std::size_t plane_count_ = 0;        // planes held in planes_
  std::vector<std::uint64_t> planes_;  // plane-major, plane_count_ × words_
  std::size_t pending_count_ = 0;      // rows buffered in pending_
  std::vector<std::uint64_t> pending_;  // kPendingRows × words_ once used
};

}  // namespace lehdc::hv
