#include "hv/batch_score.hpp"

#include <bit>

#include "hv/kernels.hpp"
#include "util/check.hpp"

#if LEHDC_X86_DISPATCH
#include <immintrin.h>
#endif

namespace lehdc::hv {

namespace {

// How many rows one blocked kernel call scores while the query words stay
// in registers/cache. Four keeps register pressure low enough for every
// tier and already amortizes the query loads over the row loads.
constexpr std::size_t kRowBlock = 4;

}  // namespace

// Per-tier popcount kernels, collected into the tier table by kernels.cpp.
namespace detail {

// ---------------------------------------------------------------- scalar --

std::size_t hamming_scalar(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t words) {
  std::size_t total = 0;
  for (std::size_t w = 0; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

void hamming4_scalar(const std::uint64_t* q, const std::uint64_t* const* rows,
                     std::size_t words, std::size_t* out) {
  std::size_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t qw = q[w];
    acc0 += static_cast<std::size_t>(std::popcount(qw ^ rows[0][w]));
    acc1 += static_cast<std::size_t>(std::popcount(qw ^ rows[1][w]));
    acc2 += static_cast<std::size_t>(std::popcount(qw ^ rows[2][w]));
    acc3 += static_cast<std::size_t>(std::popcount(qw ^ rows[3][w]));
  }
  out[0] = acc0;
  out[1] = acc1;
  out[2] = acc2;
  out[3] = acc3;
}

#if LEHDC_X86_DISPATCH

// ------------------------------------------------------------------ avx2 --
// Mula's byte-lookup popcount: per 256-bit lane, split each byte into two
// nibbles, count bits via VPSHUFB against a 16-entry table, and horizontally
// sum the byte counts into 64-bit lanes with VPSADBW.

__attribute__((target("avx2"))) static inline __m256i popcount_bytes_avx2(
    __m256i v) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                         _mm256_shuffle_epi8(lookup, hi));
}

__attribute__((target("avx2"))) std::size_t hamming_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  const std::size_t vec_words = words & ~std::size_t{3};
  __m256i acc = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t w = 0; w < vec_words; w += 4) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w)));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(popcount_bytes_avx2(x), zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                               lanes[2] + lanes[3]);
  for (std::size_t w = vec_words; w < words; ++w) {
    total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

__attribute__((target("avx2"))) void hamming4_avx2(
    const std::uint64_t* q, const std::uint64_t* const* rows,
    std::size_t words, std::size_t* out) {
  const std::size_t vec_words = words & ~std::size_t{3};
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  __m256i acc2 = _mm256_setzero_si256();
  __m256i acc3 = _mm256_setzero_si256();
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t w = 0; w < vec_words; w += 4) {
    const __m256i qv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + w));
    const __m256i x0 = _mm256_xor_si256(
        qv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[0] + w)));
    const __m256i x1 = _mm256_xor_si256(
        qv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[1] + w)));
    const __m256i x2 = _mm256_xor_si256(
        qv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[2] + w)));
    const __m256i x3 = _mm256_xor_si256(
        qv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[3] + w)));
    acc0 =
        _mm256_add_epi64(acc0, _mm256_sad_epu8(popcount_bytes_avx2(x0), zero));
    acc1 =
        _mm256_add_epi64(acc1, _mm256_sad_epu8(popcount_bytes_avx2(x1), zero));
    acc2 =
        _mm256_add_epi64(acc2, _mm256_sad_epu8(popcount_bytes_avx2(x2), zero));
    acc3 =
        _mm256_add_epi64(acc3, _mm256_sad_epu8(popcount_bytes_avx2(x3), zero));
  }
  alignas(32) std::uint64_t lanes[4];
  const __m256i accs[kRowBlock] = {acc0, acc1, acc2, acc3};
  for (std::size_t r = 0; r < kRowBlock; ++r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), accs[r]);
    std::size_t total = static_cast<std::size_t>(lanes[0] + lanes[1] +
                                                 lanes[2] + lanes[3]);
    for (std::size_t w = vec_words; w < words; ++w) {
      total += static_cast<std::size_t>(std::popcount(q[w] ^ rows[r][w]));
    }
    out[r] = total;
  }
}

// ---------------------------------------------------------------- avx512 --
// VPOPCNTQ counts all eight 64-bit lanes of a 512-bit register in one
// instruction; the ragged tail is handled with a masked load instead of a
// scalar epilogue.

// Horizontal sum through memory: GCC 12's _mm512_reduce_add_epi64 expands
// to an extract of an undefined register and trips -Wuninitialized.
__attribute__((target("avx512f"))) static inline std::size_t sum_lanes_avx512(
    __m512i v) {
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, v);
  std::uint64_t total = 0;
  for (const std::uint64_t lane : lanes) {
    total += lane;
  }
  return static_cast<std::size_t>(total);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t hamming_avx512(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t words) {
  const std::size_t vec_words = words & ~std::size_t{7};
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t w = 0; w < vec_words; w += 8) {
    const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + w),
                                       _mm512_loadu_si512(b + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  if (const std::size_t tail = words - vec_words; tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    const __m512i x =
        _mm512_xor_si512(_mm512_maskz_loadu_epi64(mask, a + vec_words),
                         _mm512_maskz_loadu_epi64(mask, b + vec_words));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
  }
  return sum_lanes_avx512(acc);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void hamming4_avx512(
    const std::uint64_t* q, const std::uint64_t* const* rows,
    std::size_t words, std::size_t* out) {
  const std::size_t vec_words = words & ~std::size_t{7};
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  __m512i acc2 = _mm512_setzero_si512();
  __m512i acc3 = _mm512_setzero_si512();
  for (std::size_t w = 0; w < vec_words; w += 8) {
    const __m512i qv = _mm512_loadu_si512(q + w);
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(
                  _mm512_xor_si512(qv, _mm512_loadu_si512(rows[0] + w))));
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(
                  _mm512_xor_si512(qv, _mm512_loadu_si512(rows[1] + w))));
    acc2 = _mm512_add_epi64(
        acc2, _mm512_popcnt_epi64(
                  _mm512_xor_si512(qv, _mm512_loadu_si512(rows[2] + w))));
    acc3 = _mm512_add_epi64(
        acc3, _mm512_popcnt_epi64(
                  _mm512_xor_si512(qv, _mm512_loadu_si512(rows[3] + w))));
  }
  if (const std::size_t tail = words - vec_words; tail != 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << tail) - 1u);
    const __m512i qv = _mm512_maskz_loadu_epi64(mask, q + vec_words);
    acc0 = _mm512_add_epi64(
        acc0, _mm512_popcnt_epi64(_mm512_xor_si512(
                  qv, _mm512_maskz_loadu_epi64(mask, rows[0] + vec_words))));
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(_mm512_xor_si512(
                  qv, _mm512_maskz_loadu_epi64(mask, rows[1] + vec_words))));
    acc2 = _mm512_add_epi64(
        acc2, _mm512_popcnt_epi64(_mm512_xor_si512(
                  qv, _mm512_maskz_loadu_epi64(mask, rows[2] + vec_words))));
    acc3 = _mm512_add_epi64(
        acc3, _mm512_popcnt_epi64(_mm512_xor_si512(
                  qv, _mm512_maskz_loadu_epi64(mask, rows[3] + vec_words))));
  }
  out[0] = sum_lanes_avx512(acc0);
  out[1] = sum_lanes_avx512(acc1);
  out[2] = sum_lanes_avx512(acc2);
  out[3] = sum_lanes_avx512(acc3);
}

#endif  // LEHDC_X86_DISPATCH

}  // namespace detail

const char* score_kernel_name() { return kernel_tier().name; }

std::size_t hamming_words(const std::uint64_t* a, const std::uint64_t* b,
                          std::size_t words) {
  return kernel_tier().hamming(a, b, words);
}

void hamming_rows(const std::uint64_t* query,
                  std::span<const std::uint64_t* const> rows,
                  std::size_t words, std::span<std::size_t> out) {
  util::expects(out.size() >= rows.size(),
                "hamming_rows output span too small");
  const KernelTier& k = kernel_tier();
  std::size_t r = 0;
  for (; r + kRowBlock <= rows.size(); r += kRowBlock) {
    k.hamming4(query, rows.data() + r, words, out.data() + r);
  }
  for (; r < rows.size(); ++r) {
    out[r] = k.hamming(query, rows[r], words);
  }
}

void hamming_rows_accumulate(const std::uint64_t* query,
                             std::span<const std::uint64_t* const> rows,
                             std::size_t words, std::span<std::size_t> inout) {
  util::expects(inout.size() >= rows.size(),
                "hamming_rows_accumulate output span too small");
  const KernelTier& k = kernel_tier();
  std::size_t partial[kRowBlock];
  std::size_t r = 0;
  for (; r + kRowBlock <= rows.size(); r += kRowBlock) {
    k.hamming4(query, rows.data() + r, words, partial);
    for (std::size_t i = 0; i < kRowBlock; ++i) {
      inout[r + i] += partial[i];
    }
  }
  for (; r < rows.size(); ++r) {
    inout[r] += k.hamming(query, rows[r], words);
  }
}

void dot_rows(const std::uint64_t* query,
              std::span<const std::uint64_t* const> rows, std::size_t dim,
              std::span<std::int64_t> out) {
  util::expects(out.size() >= rows.size(), "dot_rows output span too small");
  const std::size_t words = (dim + 63) / 64;
  std::size_t distances[kRowBlock];
  const KernelTier& k = kernel_tier();
  const auto d = static_cast<std::int64_t>(dim);
  std::size_t r = 0;
  for (; r + kRowBlock <= rows.size(); r += kRowBlock) {
    k.hamming4(query, rows.data() + r, words, distances);
    for (std::size_t i = 0; i < kRowBlock; ++i) {
      out[r + i] = d - 2 * static_cast<std::int64_t>(distances[i]);
    }
  }
  for (; r < rows.size(); ++r) {
    out[r] =
        d - 2 * static_cast<std::int64_t>(k.hamming(query, rows[r], words));
  }
}

void dot_scores_batch(std::span<const BitVector> queries,
                      std::span<const BitVector> classes,
                      std::span<std::int64_t> out) {
  util::expects(!classes.empty(), "dot_scores_batch needs >= 1 class");
  util::expects(out.size() == queries.size() * classes.size(),
                "dot_scores_batch output span has the wrong size");
  const std::size_t dim = classes.front().dim();
  std::vector<const std::uint64_t*> rows;
  rows.reserve(classes.size());
  for (const auto& c : classes) {
    util::expects(c.dim() == dim, "class rows must share one dimension");
    rows.push_back(c.words().data());
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    util::expects(queries[q].dim() == dim,
                  "query/class dimension mismatch in dot_scores_batch");
    dot_rows(queries[q].words().data(), rows, dim,
             out.subspan(q * classes.size(), classes.size()));
  }
}

int argmax_dot(const BitVector& query, std::span<const BitVector> classes) {
  util::expects(!classes.empty(), "argmax_dot over zero classes");
  // Smallest Hamming distance wins and dim − 2·h is strictly decreasing in
  // h, so first-wins argmin over distances equals first-wins argmax over
  // dots — the exact tie-break the per-sample predict implements.
  const std::size_t words = query.word_count();
  const KernelTier& k = kernel_tier();
  int best = 0;
  std::size_t best_distance =
      k.hamming(query.words().data(), classes[0].words().data(), words);
  for (std::size_t c = 1; c < classes.size(); ++c) {
    const std::size_t distance =
        k.hamming(query.words().data(), classes[c].words().data(), words);
    if (distance < best_distance) {
      best_distance = distance;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace lehdc::hv
