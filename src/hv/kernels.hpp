// The runtime-dispatched word-kernel table.
//
// Every SIMD kernel in the library — the Hamming popcounts under
// batch_score.hpp and the Harley–Seal bundling under bitslice.hpp — comes
// in one flavour per instruction-set tier. The tiers live in one table: each
// row bundles the kernels compiled for that tier, rows are probed once per
// process with __builtin_cpu_supports, and every dispatched call goes
// through the fastest supported row. There is deliberately no switch to pin
// a tier; the only way to run a slower row is to call through it, which is
// what the parity tests do for every row the CPU supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LEHDC_X86_DISPATCH 1
#else
#define LEHDC_X86_DISPATCH 0
#endif

namespace lehdc::hv {

/// One word range of a record encode (Eq. 1): input i contributes the bound
/// words pos[i * pos_stride + w] ^ rows[i][row_offset + w] for w < words.
struct BindBundleRange {
  const std::uint64_t* pos = nullptr;   // n position rows, pos_stride apart
  std::size_t pos_stride = 0;
  const std::uint64_t* const* rows = nullptr;  // n bound operands
  std::size_t row_offset = 0;           // first word of the range in rows[i]
  std::size_t n = 0;                    // inputs bundled (>= 1)
  std::size_t words = 0;                // words in the range
  const std::uint64_t* tie_break = nullptr;  // `words` tie words
};

struct KernelTier {
  /// Tier name: "avx512" (AVX-512F with VPOPCNTDQ), "avx2" or "scalar".
  const char* name;

  /// Hamming distance over `words` packed words.
  std::size_t (*hamming)(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t words);
  /// Hamming distance of one query against four rows at once.
  void (*hamming4)(const std::uint64_t* query,
                   const std::uint64_t* const* rows, std::size_t words,
                   std::size_t* out);

  /// Fused bind → Harley–Seal bundle → majority over one word range; see
  /// hv::bind_bundle_majority.
  void (*bind_bundle_majority)(const BindBundleRange& range,
                               std::uint64_t* out);
  /// Adds n rows of `words` words into plane-major bit-sliced counters
  /// (plane p of word w at planes[p * words + w]). Preconditions:
  /// plane_count >= 4 and 2^plane_count exceeds every resulting count.
  void (*bundle_accumulate)(const std::uint64_t* const* rows, std::size_t n,
                            std::size_t words, std::uint64_t* planes,
                            std::size_t plane_count);
};

/// The tiers this CPU can run, fastest first. Never empty: the scalar tier
/// runs everywhere and is always last.
[[nodiscard]] std::span<const KernelTier> supported_kernel_tiers();

/// The tier every dispatched kernel call uses: the fastest supported one.
[[nodiscard]] const KernelTier& kernel_tier();

namespace detail {
// Per-tier entry points, defined next to their portable callers in
// batch_score.cpp and bitslice.cpp and collected into the table by
// kernels.cpp.
std::size_t hamming_scalar(const std::uint64_t*, const std::uint64_t*,
                           std::size_t);
void hamming4_scalar(const std::uint64_t*, const std::uint64_t* const*,
                     std::size_t, std::size_t*);
void bind_bundle_majority_scalar(const BindBundleRange&, std::uint64_t*);
void bundle_accumulate_scalar(const std::uint64_t* const*, std::size_t,
                              std::size_t, std::uint64_t*, std::size_t);
#if LEHDC_X86_DISPATCH
std::size_t hamming_avx2(const std::uint64_t*, const std::uint64_t*,
                         std::size_t);
void hamming4_avx2(const std::uint64_t*, const std::uint64_t* const*,
                   std::size_t, std::size_t*);
void bind_bundle_majority_avx2(const BindBundleRange&, std::uint64_t*);
void bundle_accumulate_avx2(const std::uint64_t* const*, std::size_t,
                            std::size_t, std::uint64_t*, std::size_t);
std::size_t hamming_avx512(const std::uint64_t*, const std::uint64_t*,
                           std::size_t);
void hamming4_avx512(const std::uint64_t*, const std::uint64_t* const*,
                     std::size_t, std::size_t*);
void bind_bundle_majority_avx512(const BindBundleRange&, std::uint64_t*);
void bundle_accumulate_avx512(const std::uint64_t* const*, std::size_t,
                              std::size_t, std::uint64_t*, std::size_t);
#endif
}  // namespace detail

}  // namespace lehdc::hv
