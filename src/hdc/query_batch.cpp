#include "hdc/query_batch.hpp"

#include "util/check.hpp"

namespace lehdc::hdc {

QueryBatch::QueryBatch(const data::Dataset& samples, const Encoder& encoder)
    : raw_(&samples), encoder_(&encoder) {
  util::expects(samples.feature_count() == encoder.feature_count(),
                "query batch: dataset/encoder feature count mismatch");
}

const data::Dataset& QueryBatch::samples() const {
  util::expects(raw_ != nullptr, "samples() on a pre-encoded query batch");
  return *raw_;
}

const Encoder& QueryBatch::encoder() const {
  util::expects(raw_ != nullptr, "encoder() on a pre-encoded query batch");
  return *encoder_;
}

}  // namespace lehdc::hdc
