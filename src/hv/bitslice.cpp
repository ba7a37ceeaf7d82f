#include "hv/bitslice.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace lehdc::hv {

namespace {

constexpr std::size_t words_for(std::size_t dim) noexcept {
  return (dim + 63) / 64;
}

// Counter planes one lane can hold: every count below 2^64.
constexpr std::size_t kMaxPlanes = 64;

// Lane types: L consecutive packed words handled as one GCC/Clang vector.
// The carry-save core below uses only the vector operators (^ & | ~), no
// intrinsics, so one template serves every tier: inlined into an entry
// point compiled for avx512f, W8 is one zmm register; under the baseline
// ISA, W2 is one SSE2 register.
using W1 = std::uint64_t;
using W2 = std::uint64_t __attribute__((vector_size(16)));
using W4 = std::uint64_t __attribute__((vector_size(32)));
using W8 = std::uint64_t __attribute__((vector_size(64)));

template <class V>
constexpr std::size_t kLaneWords = sizeof(V) / sizeof(std::uint64_t);

// Lane values travel through references and out-parameters only: a vector
// passed or returned by value in a function compiled without its ISA would
// have a different ABI (-Wpsabi), even though every helper here is inlined.
// Loads and stores go through a packed, may_alias wrapper rather than
// memcpy: GCC expands a generic-context memcpy of a 32-byte lane into two
// 16-byte moves, and the wide reload that follows then misses store
// forwarding.
template <class V>
struct [[gnu::packed, gnu::may_alias]] UnalignedLane {
  V v;
};

template <class V>
[[gnu::always_inline]] inline void load_lane(V& v,
                                             const std::uint64_t* p) noexcept {
  v = reinterpret_cast<const UnalignedLane<V>*>(p)->v;
}

template <class V>
[[gnu::always_inline]] inline void store_lane(std::uint64_t* p,
                                              const V& v) noexcept {
  reinterpret_cast<UnalignedLane<V>*>(p)->v = v;
}

// Carry-save adder: a + b + c = 2·hi + lo, bitwise. `lo` may alias `a`.
template <class V>
[[gnu::always_inline]] inline void csa(V& hi, V& lo, const V& a, const V& b,
                                       const V& c) noexcept {
  const V u = a ^ b;
  hi = (a & b) | (u & c);
  lo = u ^ c;
}

// Harley–Seal step: adds sixteen inputs to the running low planes
// (ones, twos, fours, eights) and sets `sixteens` to the carries of
// weight 16.
template <class V>
[[gnu::always_inline]] inline void csa16(V (&low)[4], const V (&in)[16],
                                         V& sixteens) noexcept {
  V& ones = low[0];
  V& twos = low[1];
  V& fours = low[2];
  V& eights = low[3];
  V twos_a, twos_b, fours_a, fours_b, eights_a, eights_b;
  csa(twos_a, ones, ones, in[0], in[1]);
  csa(twos_b, ones, ones, in[2], in[3]);
  csa(fours_a, twos, twos, twos_a, twos_b);
  csa(twos_a, ones, ones, in[4], in[5]);
  csa(twos_b, ones, ones, in[6], in[7]);
  csa(fours_b, twos, twos, twos_a, twos_b);
  csa(eights_a, fours, fours, fours_a, fours_b);
  csa(twos_a, ones, ones, in[8], in[9]);
  csa(twos_b, ones, ones, in[10], in[11]);
  csa(fours_a, twos, twos, twos_a, twos_b);
  csa(twos_a, ones, ones, in[12], in[13]);
  csa(twos_b, ones, ones, in[14], in[15]);
  csa(fours_b, twos, twos, twos_a, twos_b);
  csa(eights_b, fours, fours, fours_a, fours_b);
  csa(sixteens, eights, eights, eights_a, eights_b);
}

// Adds inputs 0 … n − 1 (in(v, i) loads input i into v) to one lane of
// bit-sliced counters: bit p of every count lives in the lane words at
// planes[p * stride]. Planes 0-3 are the low planes of the carry-save tree
// and stay in registers across the loop; the planes above hold the binary
// count of its sixteens and are rippled once per group of sixteen. A final
// partial group enters zero-padded. Preconditions: plane_count >= 4 and
// 2^plane_count exceeds the resulting counts.
template <class V, class Input>
[[gnu::always_inline]] inline void accumulate_lane(std::uint64_t* planes,
                                                   std::size_t stride,
                                                   std::size_t plane_count,
                                                   std::size_t n,
                                                   const Input& in) noexcept {
  V low[4];
  for (std::size_t p = 0; p < 4; ++p) {
    load_lane(low[p], planes + p * stride);
  }
  V group[16];
  for (std::size_t i = 0; i < n; i += 16) {
    if (i + 16 <= n) {
      for (std::size_t j = 0; j < 16; ++j) {
        in(group[j], i + j);
      }
    } else {
      for (std::size_t j = 0; j < 16; ++j) {
        if (i + j < n) {
          in(group[j], i + j);
        } else {
          group[j] = V{};
        }
      }
    }
    V carry;
    csa16(low, group, carry);
    for (std::size_t p = 4; p < plane_count; ++p) {
      V plane;
      load_lane(plane, planes + p * stride);
      const V next = plane & carry;
      plane ^= carry;
      store_lane(planes + p * stride, plane);
      carry = next;
    }
  }
  for (std::size_t p = 0; p < 4; ++p) {
    store_lane(planes + p * stride, low[p]);
  }
}

// Per lane bit: count > threshold, from the bit-sliced counters laid out
// as in accumulate_lane, walked from the most significant plane down (the
// bit-sliced analogue of integer comparison). Exact ties take the bit of
// the `tie` words when can_tie (they are not read otherwise). Shared by
// every tier and by the scalar majority_words.
template <class V>
[[gnu::always_inline]] inline void majority_lane(
    V& out, const std::uint64_t* planes, std::size_t stride,
    std::size_t plane_count, std::size_t threshold, bool can_tie,
    const std::uint64_t* tie) noexcept {
  const std::size_t bits =
      std::max<std::size_t>(plane_count, std::bit_width(threshold));
  V gt{};
  V eq = ~V{};
  for (std::size_t p = bits; p-- > 0;) {
    V plane{};
    if (p < plane_count) {
      load_lane(plane, planes + p * stride);
    }
    if ((threshold >> p) & 1u) {
      eq &= plane;
    } else {
      gt |= eq & plane;
      eq &= ~plane;
    }
  }
  if (can_tie) {
    V tie_lane;
    load_lane(tie_lane, tie);
    gt |= eq & tie_lane;
  }
  out = gt;
}

// Input i of a fused record encode: position word ^ level word.
template <class V>
struct BoundInput {
  const std::uint64_t* pos;
  std::size_t stride;
  const std::uint64_t* const* rows;
  std::size_t offset;
  [[gnu::always_inline]] void operator()(V& v, std::size_t i) const noexcept {
    V level;
    load_lane(v, pos + i * stride);
    load_lane(level, rows[i] + offset);
    v ^= level;
  }
};

// Input i of an accumulator flush: a plain row.
template <class V>
struct RowInput {
  const std::uint64_t* const* rows;
  std::size_t offset;
  [[gnu::always_inline]] void operator()(V& v, std::size_t i) const noexcept {
    load_lane(v, rows[i] + offset);
  }
};

// Runs every whole lane of V starting at word w; returns the first word
// left over for a narrower lane type. Each lane's counters live in a
// stack block, plane p at planes[p * lane_words].
template <class V>
[[gnu::always_inline]] inline std::size_t bind_bundle_lanes(
    const BindBundleRange& r, std::size_t w, std::uint64_t* out) noexcept {
  constexpr std::size_t lane_words = kLaneWords<V>;
  const std::size_t plane_count =
      4 + static_cast<std::size_t>(std::bit_width(r.n / 16));
  const std::size_t threshold = r.n / 2;
  const bool can_tie = r.n % 2 == 0;
  alignas(64) std::uint64_t planes[kMaxPlanes * lane_words];
  for (; w + lane_words <= r.words; w += lane_words) {
    std::fill_n(planes, plane_count * lane_words, std::uint64_t{0});
    accumulate_lane<V>(planes, lane_words, plane_count, r.n,
                       BoundInput<V>{r.pos + w, r.pos_stride, r.rows,
                                     r.row_offset + w});
    V majority;
    majority_lane(majority, planes, lane_words, plane_count, threshold,
                  can_tie, r.tie_break + w);
    store_lane(out + w, majority);
  }
  return w;
}

template <class V>
[[gnu::always_inline]] inline std::size_t accumulate_lanes(
    const std::uint64_t* const* rows, std::size_t n, std::size_t words,
    std::uint64_t* planes, std::size_t plane_count, std::size_t w) noexcept {
  constexpr std::size_t lane_words = kLaneWords<V>;
  for (; w + lane_words <= words; w += lane_words) {
    accumulate_lane<V>(planes + w, words, plane_count, n,
                       RowInput<V>{rows, w});
  }
  return w;
}

// Each tier runs its widest lane over the range, then halves the lane
// width down to one word for the ragged tail.
template <class... Lanes>
[[gnu::always_inline]] inline void bind_bundle_cascade(
    const BindBundleRange& r, std::uint64_t* out) noexcept {
  std::size_t w = 0;
  ((w = bind_bundle_lanes<Lanes>(r, w, out)), ...);
}

template <class... Lanes>
[[gnu::always_inline]] inline void accumulate_cascade(
    const std::uint64_t* const* rows, std::size_t n, std::size_t words,
    std::uint64_t* planes, std::size_t plane_count) noexcept {
  std::size_t w = 0;
  ((w = accumulate_lanes<Lanes>(rows, n, words, planes, plane_count, w)),
   ...);
}

// Folds `count` (at most 16: one accumulator buffer) consecutive rows of
// `words` words into plane-major planes.
void fold_rows(const std::uint64_t* first_row, std::size_t count,
               std::size_t words, std::uint64_t* planes,
               std::size_t plane_count) {
  const std::uint64_t* rows[16];
  for (std::size_t r = 0; r < count; ++r) {
    rows[r] = first_row + r * words;
  }
  kernel_tier().bundle_accumulate(rows, count, words, planes, plane_count);
}

}  // namespace

// Per-tier bundling kernels, collected into the tier table by kernels.cpp.
namespace detail {

void bind_bundle_majority_scalar(const BindBundleRange& range,
                                 std::uint64_t* out) {
  bind_bundle_cascade<W2, W1>(range, out);
}

void bundle_accumulate_scalar(const std::uint64_t* const* rows,
                              std::size_t n, std::size_t words,
                              std::uint64_t* planes, std::size_t plane_count) {
  accumulate_cascade<W2, W1>(rows, n, words, planes, plane_count);
}

#if LEHDC_X86_DISPATCH

__attribute__((target("avx2"))) void bind_bundle_majority_avx2(
    const BindBundleRange& range, std::uint64_t* out) {
  bind_bundle_cascade<W4, W2, W1>(range, out);
}

__attribute__((target("avx2"))) void bundle_accumulate_avx2(
    const std::uint64_t* const* rows, std::size_t n, std::size_t words,
    std::uint64_t* planes, std::size_t plane_count) {
  accumulate_cascade<W4, W2, W1>(rows, n, words, planes, plane_count);
}

__attribute__((target("avx512f"))) void bind_bundle_majority_avx512(
    const BindBundleRange& range, std::uint64_t* out) {
  bind_bundle_cascade<W8, W4, W2, W1>(range, out);
}

__attribute__((target("avx512f"))) void bundle_accumulate_avx512(
    const std::uint64_t* const* rows, std::size_t n, std::size_t words,
    std::uint64_t* planes, std::size_t plane_count) {
  accumulate_cascade<W8, W4, W2, W1>(rows, n, words, planes, plane_count);
}

#endif  // LEHDC_X86_DISPATCH

}  // namespace detail

void majority_words(const std::uint64_t* planes, std::size_t plane_count,
                    std::size_t words, std::size_t added,
                    const std::uint64_t* tie_break, std::uint64_t* out) {
  util::expects(added > 0, "majority over zero votes");
  util::expects(plane_count <= kMaxPlanes, "majority over too many planes");
  const bool can_tie = (added % 2 == 0);
  const std::size_t threshold = added / 2;
  for (std::size_t w = 0; w < words; ++w) {
    majority_lane<W1>(out[w], planes + w, words, plane_count, threshold,
                      can_tie, tie_break + w);
  }
}

void bind_bundle_majority(const BindBundleRange& range, std::uint64_t* out) {
  kernel_tier().bind_bundle_majority(range, out);
}

BitSliceAccumulator::BitSliceAccumulator(std::size_t dim)
    : dim_(dim), words_(words_for(dim)) {}

void BitSliceAccumulator::reset() noexcept {
  added_ = 0;
  plane_count_ = 0;
  planes_.clear();
  pending_count_ = 0;
}

void BitSliceAccumulator::add(const BitVector& hv) {
  util::expects(hv.dim() == dim_, "accumulator dimension mismatch");
  if (pending_.empty()) {
    pending_.resize(kPendingRows * words_);
  }
  const auto input = hv.words();
  std::copy(input.begin(), input.end(),
            pending_.begin() +
                static_cast<std::ptrdiff_t>(pending_count_ * words_));
  ++pending_count_;
  ++added_;
  if (pending_count_ < kPendingRows) {
    return;
  }
  // A full buffer: fold it into the counter planes, growing them first so
  // the new counts fit (planes are plane-major, so a new most significant
  // plane is a zeroed block appended at the end).
  const std::size_t needed =
      std::max<std::size_t>(4, std::bit_width(added_));
  if (plane_count_ < needed) {
    planes_.resize(needed * words_, 0);
    plane_count_ = needed;
  }
  fold_rows(pending_.data(), pending_count_, words_, planes_.data(),
            plane_count_);
  pending_count_ = 0;
}

std::vector<std::uint64_t> BitSliceAccumulator::settled_planes(
    std::size_t& plane_count) const {
  plane_count = std::max<std::size_t>(4, std::bit_width(added_));
  std::vector<std::uint64_t> planes(planes_);
  planes.resize(plane_count * words_, 0);
  if (pending_count_ > 0) {
    fold_rows(pending_.data(), pending_count_, words_, planes.data(),
              plane_count);
  }
  return planes;
}

std::size_t BitSliceAccumulator::plane_count() const noexcept {
  return static_cast<std::size_t>(std::bit_width(added_));
}

std::size_t BitSliceAccumulator::count(std::size_t i) const {
  util::expects(i < dim_, "component index out of range");
  const std::size_t w = i / 64;
  const std::size_t b = i % 64;
  std::size_t value = 0;
  for (std::size_t p = 0; p < plane_count_; ++p) {
    value |= static_cast<std::size_t>((planes_[p * words_ + w] >> b) & 1u)
             << p;
  }
  for (std::size_t r = 0; r < pending_count_; ++r) {
    value += static_cast<std::size_t>((pending_[r * words_ + w] >> b) & 1u);
  }
  return value;
}

BitVector BitSliceAccumulator::majority(const BitVector& tie_break) const {
  util::expects(added_ > 0, "majority of an empty accumulator");
  util::expects(tie_break.dim() == dim_, "tie-break dimension mismatch");
  // Lanes past dim_ hold count 0 and tie_break's tail bits are zero, so the
  // output tail stays zero without masking.
  std::size_t plane_count = 0;
  const auto planes = settled_planes(plane_count);
  BitVector out(dim_);
  majority_words(planes.data(), plane_count, words_, added_,
                 tie_break.words().data(), out.words().data());
  return out;
}

IntVector BitSliceAccumulator::to_int_vector() const {
  std::size_t plane_count = 0;
  const auto planes = settled_planes(plane_count);
  IntVector out(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    const std::size_t w = i / 64;
    const std::size_t b = i % 64;
    std::int64_t negatives = 0;
    for (std::size_t p = 0; p < plane_count; ++p) {
      negatives |= static_cast<std::int64_t>((planes[p * words_ + w] >> b) &
                                             1u)
                   << p;
    }
    out.set(i, static_cast<std::int32_t>(static_cast<std::int64_t>(added_) -
                                         2 * negatives));
  }
  return out;
}

}  // namespace lehdc::hv
