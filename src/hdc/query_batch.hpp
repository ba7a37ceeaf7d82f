// The one batched-prediction input surface.
//
// Batch prediction takes three kinds of input — raw data::Dataset,
// std::span<const hv::BitVector>, EncodedDataset. QueryBatch is a non-owning
// view any of the three converts to implicitly, consumed by exactly one
// predict entry point per layer (BatchScorer::predict_queries,
// train::Model::predict_queries, Pipeline::predict_batch). The legacy
// overloads remain as one-line adapters constructing a QueryBatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "data/dataset.hpp"
#include "hdc/encoded_dataset.hpp"
#include "hv/bitvector.hpp"

namespace lehdc::hdc {

/// Non-owning view over a batch of prediction inputs: either
/// already-encoded hypervectors, or raw samples paired with the encoder to
/// run them through (block by block, see BlockEncodeWorker). Everything
/// referenced must outlive the view.
class QueryBatch {
 public:
  /// Already-encoded hypervectors.
  QueryBatch(std::span<const hv::BitVector> encoded) : encoded_(encoded) {}

  /// Every hypervector of an encoded dataset.
  QueryBatch(const EncodedDataset& dataset)
      : encoded_(dataset.hypervectors()) {}

  /// Raw samples still to be encoded.
  QueryBatch(const data::Dataset& samples, const Encoder& encoder);

  [[nodiscard]] std::size_t size() const noexcept {
    return raw_ != nullptr ? raw_->size() : encoded_.size();
  }

  /// True when the batch is raw samples (encode still to happen).
  [[nodiscard]] bool raw() const noexcept { return raw_ != nullptr; }

  /// The encoded view; empty when raw(). Valid only when !raw().
  [[nodiscard]] std::span<const hv::BitVector> encoded() const noexcept {
    return encoded_;
  }

  /// The raw samples / their encoder. Preconditions: raw().
  [[nodiscard]] const data::Dataset& samples() const;
  [[nodiscard]] const Encoder& encoder() const;

 private:
  std::span<const hv::BitVector> encoded_{};
  const data::Dataset* raw_ = nullptr;
  const Encoder* encoder_ = nullptr;
};

/// Per-stage cost accounting a predict_queries call can fill (pass nullptr
/// to skip the bookkeeping). Seconds are summed across workers, so they
/// exceed elapsed time on a multi-threaded pass.
struct PredictStats {
  double encode_seconds = 0.0;
  double score_seconds = 0.0;
  /// Item-memory bytes the encode stage gathered, totalled over the batch:
  /// the N·W·8 position bytes once per encode block. 0 for pre-encoded
  /// batches.
  std::uint64_t encode_bytes = 0;
  std::uint64_t samples = 0;
};

}  // namespace lehdc::hdc
