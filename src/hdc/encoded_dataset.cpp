#include "hdc/encoded_dataset.hpp"

#include <algorithm>

#include "hdc/block_encoder.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace lehdc::hdc {

void EncodedDataset::add(hv::BitVector hv, int label) {
  util::expects(hv.dim() == dim_, "hypervector dimension mismatch");
  util::expects(label >= 0 && static_cast<std::size_t>(label) < class_count_,
                "label out of range");
  hypervectors_.push_back(std::move(hv));
  labels_.push_back(label);
}

const hv::BitVector& EncodedDataset::hypervector(std::size_t i) const {
  util::expects(i < size(), "sample index out of range");
  return hypervectors_[i];
}

int EncodedDataset::label(std::size_t i) const {
  util::expects(i < size(), "sample index out of range");
  return labels_[i];
}

EncodedDataset encode_dataset(const Encoder& encoder,
                              const data::Dataset& dataset) {
  util::expects(encoder.feature_count() == dataset.feature_count(),
                "encoder/dataset feature width mismatch");
  const obs::TraceSpan span("encode.dataset");
  const std::size_t n = dataset.size();
  std::vector<hv::BitVector> encoded(n);
  const std::size_t blocks =
      (n + kEncodeBlockSamples - 1) / kEncodeBlockSamples;
  util::parallel_for(0, blocks, [&](std::size_t lo, std::size_t hi) {
    BlockEncodeWorker worker(encoder);
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t begin = b * kEncodeBlockSamples;
      const std::size_t count = std::min(n - begin, kEncodeBlockSamples);
      worker.encode(dataset, begin, {encoded.data() + begin, count});
    }
  });
  EncodedDataset out(encoder.dim(), dataset.class_count());
  for (std::size_t i = 0; i < n; ++i) {
    out.add(std::move(encoded[i]), dataset.label(i));
  }
  return out;
}

}  // namespace lehdc::hdc
