#include "hdc/block_encoder.hpp"

#include <cstring>

#include "data/dataset.hpp"
#include "hdc/encoder.hpp"
#include "hv/bitvector.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"

namespace lehdc::hdc {

std::size_t block_range_words(std::size_t feature_count,
                              std::size_t word_count) noexcept {
  constexpr std::size_t kPositionScratchWords =
      256 * 1024 / sizeof(std::uint64_t);
  std::size_t words =
      kPositionScratchWords / (feature_count == 0 ? 1 : feature_count);
  if (words < 8) {
    words = 8;
  }
  return words < word_count ? words : word_count;
}

BlockEncodeWorker::BlockEncodeWorker(const Encoder& encoder)
    : encoder_(encoder) {
  if (const auto* block = dynamic_cast<const BlockEncoder*>(&encoder)) {
    cursor_ = block->make_cursor();
    range_words_ =
        block_range_words(encoder.feature_count(), block->word_count());
    range_buf_.resize(kEncodeBlockSamples * range_words_);
  }
}

void BlockEncodeWorker::encode(const data::Dataset& samples,
                               std::size_t begin,
                               std::span<hv::BitVector> out) {
  static obs::Counter& sample_counter =
      obs::Registry::global().counter("encode.samples");
  static obs::Histogram& block_hist =
      obs::Registry::global().histogram("encode.block_seconds");

  const std::size_t count = out.size();
  util::expects(count >= 1 && count <= kEncodeBlockSamples,
                "block encode: block size out of range");
  const obs::ScopedTimer block_timer(block_hist);
  if (cursor_ != nullptr) {
    for (hv::BitVector& hv : out) {
      if (hv.dim() != encoder_.dim()) {
        hv = hv::BitVector(encoder_.dim());
      }
    }
    // One cursor pass over the block; range-sized steps keep its position
    // scratch cache-resident while the destination hypervectors fill.
    cursor_->begin(samples.rows(begin, count), count);
    std::size_t word_pos = 0;
    while (const std::size_t produced =
               cursor_->encode_words(range_words_, range_buf_)) {
      for (std::size_t s = 0; s < count; ++s) {
        std::memcpy(out[s].words().data() + word_pos,
                    range_buf_.data() + s * produced,
                    produced * sizeof(std::uint64_t));
      }
      word_pos += produced;
    }
  } else {
    for (std::size_t s = 0; s < count; ++s) {
      out[s] = encoder_.encode(samples.sample(begin + s));
    }
  }
  sample_counter.add(count);
}

}  // namespace lehdc::hdc
