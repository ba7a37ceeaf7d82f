// Batch-first inference over the three classifier kinds.
//
// BatchScorer is the serving core the per-sample predict paths are now thin
// wrappers over: it flattens a classifier's hypervectors into row pointers
// once, owns reusable scratch buffers (no per-query allocation), and scores
// whole batches through the blocked kernels of hv/batch_score.hpp,
// parallelized over the batch on a util::ThreadPool. All reductions are
// chunk-deterministic: per-chunk partials are combined in chunk order, so
// results are bit-identical for every worker count, and bit-identical to
// the per-sample predict of each classifier kind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/encoded_dataset.hpp"
#include "hdc/query_batch.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace lehdc::hdc {

/// A reusable inference session bound to one classifier. The classifier
/// must outlive the session and stay unmodified while it is in use.
/// Safe for concurrent predict/score calls: scratch buffers are claimed per
/// parallel task from an internal free list.
class BatchScorer {
 public:
  /// Binds to a classifier; `pool` overrides the thread pool (nullptr means
  /// util::ThreadPool::global()).
  explicit BatchScorer(const BinaryClassifier& classifier,
                       util::ThreadPool* pool = nullptr);
  explicit BatchScorer(const EnsembleClassifier& classifier,
                       util::ThreadPool* pool = nullptr);
  explicit BatchScorer(const NonBinaryClassifier& classifier,
                       util::ThreadPool* pool = nullptr);
  ~BatchScorer();

  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;

  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_count_;
  }

  /// THE batched prediction entry point: classifies any QueryBatch view —
  /// already-encoded hypervectors, an EncodedDataset, or raw samples plus
  /// their encoder — bit-identically to the bound classifier's per-sample
  /// predict over per-sample encode, for every worker count. Raw batches
  /// run blocked: each worker encodes a block of samples through a
  /// BlockEncodeWorker, scores it and reuses the buffers for its next
  /// block. `stats` (optional) receives per-stage seconds and encode
  /// bytes. Precondition: out.size() == queries.size().
  void predict_queries(const QueryBatch& queries, std::span<int> out,
                       PredictStats* stats = nullptr) const;

  /// Adapter: predict_queries over already-encoded hypervectors.
  void predict_batch(std::span<const hv::BitVector> queries,
                     std::span<int> out) const;

  /// Adapter: predict_queries over an encoded dataset.
  void predict_batch(const EncodedDataset& dataset, std::span<int> out) const;

  /// Row-major Q × class_count() bipolar dot scores (the BNN output vector
  /// o per query). For an ensemble, each class's score is the best score
  /// among its hypervectors. Unsupported for non-binary classifiers (their
  /// scores are cosines; use cosine_scores_batch). Precondition:
  /// out.size() == queries.size() * class_count().
  void scores_batch(std::span<const hv::BitVector> queries,
                    std::span<std::int64_t> out) const;

  /// Row-major Q × class_count() cosine scores of a non-binary classifier.
  void cosine_scores_batch(std::span<const hv::BitVector> queries,
                           std::span<double> out) const;

  /// Number of dataset samples whose prediction matches their label.
  /// Deterministic chunked reduction: invariant to the worker count.
  [[nodiscard]] std::size_t correct_count(const EncodedDataset& dataset) const;

  /// Fraction of correctly classified samples in [0, 1]; 0 on empty input.
  [[nodiscard]] double accuracy(const EncodedDataset& dataset) const;

 private:
  enum class Kind { kBinary, kEnsemble, kNonBinary };
  struct Scratch;

  // Queries [begin, end) of the batch scored serially with one scratch
  // buffer; the chunking layer above parallelizes calls to this.
  void predict_range(std::span<const hv::BitVector> queries,
                     std::size_t begin, std::size_t end, std::span<int> out,
                     Scratch& scratch) const;

  // Pre-encoded batches: the chunked predict_range parallel loop.
  void predict_encoded(std::span<const hv::BitVector> queries,
                       std::span<int> out, PredictStats* stats) const;

  // Raw batches: encode one block of hypervectors per worker through a
  // BlockEncodeWorker, score it, reuse the buffers for the next block.
  void predict_blocked(const data::Dataset& dataset, const Encoder& encoder,
                       std::span<int> out, PredictStats* stats) const;

  [[nodiscard]] double cosine_score(const hv::BitVector& query,
                                    std::size_t k) const;

  [[nodiscard]] std::unique_ptr<Scratch> acquire_scratch() const
      LEHDC_EXCLUDES(scratch_mutex_);
  void release_scratch(std::unique_ptr<Scratch> scratch) const
      LEHDC_EXCLUDES(scratch_mutex_);

  [[nodiscard]] util::ThreadPool& pool() const noexcept;

  Kind kind_;
  util::ThreadPool* pool_ = nullptr;
  std::size_t class_count_ = 0;
  std::size_t dim_ = 0;

  // Binary/ensemble: every class hypervector flattened to row pointers in
  // (class, model) order — the per-sample scan order, so first-wins argmax
  // ties resolve identically.
  std::vector<const std::uint64_t*> rows_;
  // Ensemble: rows_[r] belongs to class row_class_[r]. Empty for binary
  // (row index == class).
  std::vector<int> row_class_;

  // Non-binary: the classifier (for its integer rows) plus each class
  // vector's precomputed cosine denominator ‖C_k‖·√D.
  const NonBinaryClassifier* nonbinary_ = nullptr;
  std::vector<double> norms_;

  // Reusable scratch, one buffer per in-flight parallel task.
  mutable util::Mutex scratch_mutex_;
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_
      LEHDC_GUARDED_BY(scratch_mutex_);
};

}  // namespace lehdc::hdc
