#include "hdc/item_memory.hpp"

#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace lehdc::hdc {

PositionMemory::PositionMemory(std::size_t feature_count, std::size_t dim,
                               std::uint64_t seed)
    : dim_(dim) {
  util::expects(feature_count > 0, "position memory needs >= 1 feature");
  util::expects(dim > 0, "position memory needs a positive dimension");
  util::Rng rng(seed);
  items_ = hv::random_set(feature_count, dim, rng);
}

const hv::BitVector& PositionMemory::at(std::size_t i) const {
  util::expects(i < items_.size(), "feature position out of range");
  return items_[i];
}

LevelMemory::LevelMemory(std::size_t levels, std::size_t dim, float lo,
                         float hi, std::uint64_t seed)
    : dim_(dim), lo_(lo), hi_(hi) {
  util::expects(levels >= 2, "level memory needs at least two levels");
  util::expects(lo < hi, "level memory needs a non-empty value range");
  util::Rng rng(seed);
  items_ = hv::level_set(levels, dim, rng);
}

std::size_t LevelMemory::quantize(float value) const noexcept {
  if (value <= lo_) {
    return 0;
  }
  if (value >= hi_) {
    return items_.size() - 1;
  }
  const double t = (static_cast<double>(value) - lo_) / (hi_ - lo_);
  const auto q = static_cast<std::size_t>(
      t * static_cast<double>(items_.size()));
  return q >= items_.size() ? items_.size() - 1 : q;
}

const hv::BitVector& LevelMemory::at(std::size_t q) const {
  util::expects(q < items_.size(), "level index out of range");
  return items_[q];
}

const hv::BitVector& LevelMemory::for_value(float value) const noexcept {
  return items_[quantize(value)];
}

}  // namespace lehdc::hdc
