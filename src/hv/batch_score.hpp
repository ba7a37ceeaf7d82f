// Batched similarity kernels: Q queries × K class rows in one pass.
//
// The per-sample inference path computes one Hamming popcount per
// (query, class) pair through BitVector::dot, reloading the query words for
// every class and spending most of its time in scalar popcnt. These kernels
// keep the query words resident while scoring a block of rows, process the
// packed words with the widest popcount instruction the CPU offers
// (AVX-512 VPOPCNTQ → AVX2 byte-lookup → scalar), and never allocate —
// callers provide the output spans. They are the single compute core under
// hdc::BatchScorer and everything batch-shaped above it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "hv/bitvector.hpp"

namespace lehdc::hv {

/// Name of the kernel tier (hv/kernels.hpp) selected at runtime for this
/// process: "avx512" (VPOPCNTQ), "avx2" (byte-lookup popcount) or "scalar".
[[nodiscard]] const char* score_kernel_name();

/// Hamming distance |a ≠ b| over `words` packed 64-bit words (bits past the
/// logical dimension must be zero, as BitVector guarantees).
[[nodiscard]] std::size_t hamming_words(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::size_t words);

/// Hamming distance of one query against each of K rows sharing `words`
/// packed words. rows[k] points at row k's packed words; out needs K slots.
/// Rows are scored in blocks so the query words are loaded once per block.
void hamming_rows(const std::uint64_t* query,
                  std::span<const std::uint64_t* const> rows,
                  std::size_t words, std::span<std::size_t> out);

/// Partial-distance variant for the fused encode→score path: adds each
/// row's Hamming distance over this word range into inout (+=). Callers
/// sweep the word ranges of a block-encoded query, offsetting the row
/// pointers per range, and read off full-dimension distances at the end.
/// Precondition: inout.size() >= rows.size().
void hamming_rows_accumulate(const std::uint64_t* query,
                             std::span<const std::uint64_t* const> rows,
                             std::size_t words, std::span<std::size_t> inout);

/// Bipolar dot scores query·row_k = dim − 2·Hamming for K rows of logical
/// dimension `dim`. out needs K slots.
void dot_rows(const std::uint64_t* query,
              std::span<const std::uint64_t* const> rows, std::size_t dim,
              std::span<std::int64_t> out);

/// Row-major Q × K bipolar dot scores: out[q * K + k] = queries[q]·classes[k].
/// Serial over queries — callers chunk the batch across threads.
/// Preconditions: all dimensions match, out.size() == Q · K.
void dot_scores_batch(std::span<const BitVector> queries,
                      std::span<const BitVector> classes,
                      std::span<std::int64_t> out);

/// argmax_k query·classes[k] with ties resolved to the lowest k — exactly
/// BinaryClassifier's decision rule (argmax dot ≡ argmin Hamming).
/// Precondition: !classes.empty().
[[nodiscard]] int argmax_dot(const BitVector& query,
                             std::span<const BitVector> classes);

}  // namespace lehdc::hv
