// Encoded dataset cache.
//
// Every training strategy in the paper consumes the *same* encoded sample
// hypervectors (LeHDC changes training only, Sec. 4). Encoding is therefore
// done once per dataset and cached; trainers operate on the cache.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "hdc/encoder.hpp"
#include "hv/bitvector.hpp"

namespace lehdc::hdc {

class EncodedDataset {
 public:
  EncodedDataset() = default;

  EncodedDataset(std::size_t dim, std::size_t class_count)
      : dim_(dim), class_count_(class_count) {}

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t class_count() const noexcept {
    return class_count_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  void add(hv::BitVector hv, int label);

  [[nodiscard]] const hv::BitVector& hypervector(std::size_t i) const;
  [[nodiscard]] std::span<const hv::BitVector> hypervectors() const noexcept {
    return hypervectors_;
  }
  [[nodiscard]] int label(std::size_t i) const;
  [[nodiscard]] std::span<const int> labels() const noexcept {
    return labels_;
  }

 private:
  std::size_t dim_ = 0;
  std::size_t class_count_ = 0;
  std::vector<hv::BitVector> hypervectors_;
  std::vector<int> labels_;
};

/// Encodes every sample of `dataset` with `encoder`, one BlockEncodeWorker
/// per worker of the global thread pool. Preconditions: matching feature
/// counts.
[[nodiscard]] EncodedDataset encode_dataset(const Encoder& encoder,
                                            const data::Dataset& dataset);

}  // namespace lehdc::hdc
