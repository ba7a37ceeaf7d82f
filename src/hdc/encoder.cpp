#include "hdc/encoder.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace lehdc::hdc {

namespace {
// Independent seed streams per codebook so that, e.g., changing the level
// count does not perturb the position memory.
constexpr std::uint64_t kPositionStream = 0x1001;
constexpr std::uint64_t kLevelStream = 0x2002;
constexpr std::uint64_t kTieBreakStream = 0x3003;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  util::SplitMix64 mixer(seed ^ (stream * 0x9e3779b97f4a7c15ULL));
  return mixer();
}

// The RecordEncoder block cursor. Per word range it gathers the position
// words for every feature once — shared by all bound samples, which is what
// makes rematerialization pay: the RNG replay cost is amortized over the
// block — then per sample binds them against the level words and majority-
// votes the range. All scratch is retained across begin() calls.
class RecordBlockCursor final : public BlockEncodeCursor {
 public:
  RecordBlockCursor(const RecordEncoder& owner, EncodePath path)
      : owner_(owner), requested_(path) {}

  void begin(std::span<const float> features, std::size_t count) override {
    const std::size_t n = owner_.feature_count();
    util::expects(count >= 1, "block encode of zero samples");
    util::expects(features.size() == count * n,
                  "block encode: feature width mismatch");
    count_ = count;
    word_pos_ = 0;
    level_rows_.resize(count * n);
    for (std::size_t idx = 0; idx < features.size(); ++idx) {
      level_rows_[idx] =
          owner_.levels().for_value(features[idx]).words().data();
    }
    rematerialize_ =
        resolve_encode_path(requested_, count) == EncodePath::kRematerialized;
    if (rematerialize_) {
      row_rngs_.clear();
      row_rngs_.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        util::Rng rng;
        rng.set_state(owner_.positions().row_state(i));
        row_rngs_.push_back(rng);
      }
    }
  }

  std::size_t encode_words(std::size_t words,
                           std::span<std::uint64_t> out) override {
    const std::size_t total = owner_.word_count();
    if (word_pos_ >= total || words == 0) {
      return 0;
    }
    const std::size_t produced = std::min(words, total - word_pos_);
    util::expects(out.size() >= count_ * produced,
                  "block encode: output span too small");
    const std::size_t n = owner_.feature_count();
    position_words_.resize(n * produced);
    if (rematerialize_) {
      // Replay each row's stream in storage-word order; the draws continue
      // exactly where the previous range left off. The tail word must be
      // masked like BitVector::clear_tail does — the stored rows have zero
      // bits past the dimension, the raw stream does not.
      const std::size_t tail_bits = owner_.dim() % 64;
      const bool mask_tail = word_pos_ + produced == total && tail_bits != 0;
      const std::uint64_t tail_mask =
          (std::uint64_t{1} << (tail_bits == 0 ? 1 : tail_bits)) - 1;
      for (std::size_t i = 0; i < n; ++i) {
        util::Rng& rng = row_rngs_[i];
        std::uint64_t* dst = position_words_.data() + i * produced;
        for (std::size_t w = 0; w < produced; ++w) {
          dst[w] = rng.next();
        }
        if (mask_tail) {
          dst[produced - 1] &= tail_mask;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t* src =
            owner_.positions().at(i).words().data() + word_pos_;
        std::memcpy(position_words_.data() + i * produced, src,
                    produced * sizeof(std::uint64_t));
      }
    }
    // Bind, bundle and majority-vote the range of each sample in one pass
    // of the Harley–Seal kernel: position row i (stride `produced` in the
    // scratch) against the sample's level row for feature i.
    hv::BindBundleRange range;
    range.pos = position_words_.data();
    range.pos_stride = produced;
    range.row_offset = word_pos_;
    range.n = n;
    range.words = produced;
    range.tie_break = owner_.tie_break().words().data() + word_pos_;
    for (std::size_t s = 0; s < count_; ++s) {
      range.rows = level_rows_.data() + s * n;
      hv::bind_bundle_majority(range, out.data() + s * produced);
    }
    word_pos_ += produced;
    return produced;
  }

 private:
  const RecordEncoder& owner_;
  EncodePath requested_;
  bool rematerialize_ = false;
  std::size_t count_ = 0;
  std::size_t word_pos_ = 0;
  std::vector<const std::uint64_t*> level_rows_;  // count × N level rows
  std::vector<util::Rng> row_rngs_;               // N replay streams (remat)
  std::vector<std::uint64_t> position_words_;     // N × range scratch
};
}  // namespace

RecordEncoder::RecordEncoder(const RecordEncoderConfig& config)
    : config_(config),
      positions_(config.feature_count, config.dim,
                 stream_seed(config.seed, kPositionStream)),
      levels_(config.levels, config.dim, config.range_lo, config.range_hi,
              stream_seed(config.seed, kLevelStream)),
      tie_break_(config.dim) {
  util::Rng rng(stream_seed(config.seed, kTieBreakStream));
  tie_break_.randomize(rng);
}

std::size_t RecordEncoder::dim() const noexcept { return positions_.dim(); }

std::size_t RecordEncoder::feature_count() const noexcept {
  return positions_.size();
}

hv::BitVector RecordEncoder::encode(std::span<const float> features) const {
  util::expects(features.size() == feature_count(),
                "encode: feature width mismatch");
  // Thin adapter over the block surface: a one-sample block, whole word
  // range, streaming the stored rows (rematerialization only pays for
  // blocks). Model IO and per-sample predict stay on this.
  hv::BitVector out(dim());
  RecordBlockCursor cursor(*this, EncodePath::kMaterialized);
  cursor.begin(features, 1);
  cursor.encode_words(word_count(), out.words());
  return out;
}

std::size_t RecordEncoder::word_count() const noexcept {
  return tie_break_.word_count();
}

std::size_t RecordEncoder::encode_bytes_per_sample(
    EncodePath path, std::size_t block_samples) const noexcept {
  // The position memory is what each sample streams (the level memory is
  // Q·D bits, cache-resident, identical on both paths). Rematerialization
  // replaces the stream with scratch words shared by the whole block.
  const std::size_t samples = block_samples == 0 ? 1 : block_samples;
  const std::size_t position_bytes =
      feature_count() * word_count() * sizeof(std::uint64_t);
  if (resolve_encode_path(path, samples) == EncodePath::kMaterialized) {
    return position_bytes;
  }
  return position_bytes / samples;
}

std::unique_ptr<BlockEncodeCursor> RecordEncoder::make_cursor(
    EncodePath path) const {
  return std::make_unique<RecordBlockCursor>(*this, path);
}

NgramEncoder::NgramEncoder(const NgramEncoderConfig& config)
    : feature_count_(config.feature_count),
      ngram_(config.ngram),
      levels_(config.levels, config.dim, config.range_lo, config.range_hi,
              stream_seed(config.seed, kLevelStream)),
      tie_break_(config.dim) {
  util::expects(config.ngram >= 1, "n-gram length must be at least 1");
  util::expects(config.feature_count >= config.ngram,
                "n-gram length exceeds the feature count");
  util::Rng rng(stream_seed(config.seed, kTieBreakStream));
  tie_break_.randomize(rng);
}

std::size_t NgramEncoder::dim() const noexcept { return levels_.dim(); }

std::size_t NgramEncoder::feature_count() const noexcept {
  return feature_count_;
}

hv::BitVector NgramEncoder::encode(std::span<const float> features) const {
  util::expects(features.size() == feature_count_,
                "encode: feature width mismatch");
  hv::BitSliceAccumulator accumulator(dim());
  for (std::size_t start = 0; start + ngram_ <= features.size(); ++start) {
    hv::BitVector window(dim());
    for (std::size_t j = 0; j < ngram_; ++j) {
      // Older positions in the window get higher rotation counts, encoding
      // order information.
      const std::size_t rotation = ngram_ - 1 - j;
      hv::BitVector value = levels_.for_value(features[start + j]);
      if (rotation > 0) {
        value = value.rotated(rotation);
      }
      window.bind_inplace(value);
    }
    accumulator.add(window);
  }
  return accumulator.majority(tie_break_);
}

}  // namespace lehdc::hdc
