// Oracle tests for the word kernels, run through every tier of the kernel
// table this CPU supports (hv::supported_kernel_tiers), not just the one
// dispatch selects. The reference is deliberately naive and shares no code
// with the kernels: a per-bit integer counter with the sgn tie-break for
// bundling, std::popcount word by word for Hamming distances. The record
// encoder is checked against the same counter at paper scale, so a bundling
// bug cannot hide behind an encoder that reuses the kernel it is compared
// with.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "hdc/encoder.hpp"
#include "hv/bitslice.hpp"
#include "hv/kernels.hpp"
#include "util/rng.hpp"

namespace lehdc {
namespace {

using Words = std::vector<std::uint64_t>;

const std::size_t kInputCounts[] = {1, 2, 3, 15, 16, 17, 32, 33, 784};
const std::size_t kWordCounts[] = {1, 7, 8, 9, 41, 157};

Words random_words(std::size_t count, util::Rng& rng) {
  Words out(count);
  for (auto& w : out) {
    w = rng.next();
  }
  return out;
}

// Per-bit count of ones over `inputs` (each `words` words long).
std::vector<std::size_t> naive_counts(const std::vector<Words>& inputs,
                                      std::size_t words) {
  std::vector<std::size_t> counts(words * 64, 0);
  for (const Words& input : inputs) {
    for (std::size_t bit = 0; bit < words * 64; ++bit) {
      counts[bit] += (input[bit / 64] >> (bit % 64)) & 1u;
    }
  }
  return counts;
}

// sgn-majority: a bit is set iff more than half the inputs set it; an
// exact tie takes the tie-break bit.
Words naive_majority(const std::vector<Words>& inputs, std::size_t words,
                     const Words& tie) {
  const auto counts = naive_counts(inputs, words);
  const std::size_t n = inputs.size();
  Words out(words, 0);
  for (std::size_t bit = 0; bit < words * 64; ++bit) {
    const std::size_t twice = 2 * counts[bit];
    const bool tie_bit = (tie[bit / 64] >> (bit % 64)) & 1u;
    const bool set = twice > n || (twice == n && tie_bit);
    out[bit / 64] |= static_cast<std::uint64_t>(set) << (bit % 64);
  }
  return out;
}

class TierTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    for (const hv::KernelTier& tier : hv::supported_kernel_tiers()) {
      if (GetParam() == tier.name) {
        tier_ = &tier;
      }
    }
    if (tier_ == nullptr) {
      GTEST_SKIP() << "tier " << GetParam() << " not supported on this CPU";
    }
  }

  const hv::KernelTier* tier_ = nullptr;
};

std::string tier_label(const ::testing::TestParamInfo<std::string>& info) {
  return info.param;
}

// The fused kernel on n inputs of `words` words: position rows packed with
// a stride wider than the range and level rows read at a nonzero offset,
// as the record cursor lays them out.
Words run_bind_bundle(const hv::KernelTier& tier,
                      const std::vector<Words>& pos_rows,
                      const std::vector<Words>& level_rows, std::size_t words,
                      const Words& tie) {
  constexpr std::size_t kStridePad = 3;
  constexpr std::size_t kOffset = 5;
  const std::size_t n = pos_rows.size();
  const std::size_t stride = words + kStridePad;
  Words pos(n * stride, ~std::uint64_t{0});
  std::vector<Words> shifted(n);
  std::vector<const std::uint64_t*> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(pos_rows[i].begin(), pos_rows[i].end(),
              pos.begin() + static_cast<std::ptrdiff_t>(i * stride));
    shifted[i].assign(kOffset, ~std::uint64_t{0});
    shifted[i].insert(shifted[i].end(), level_rows[i].begin(),
                      level_rows[i].end());
    rows[i] = shifted[i].data();
  }
  hv::BindBundleRange range;
  range.pos = pos.data();
  range.pos_stride = stride;
  range.rows = rows.data();
  range.row_offset = kOffset;
  range.n = n;
  range.words = words;
  range.tie_break = tie.data();
  Words out(words, 0xdeadbeefULL);
  tier.bind_bundle_majority(range, out.data());
  return out;
}

using BundleOracle = TierTest;

TEST_P(BundleOracle, BindBundleMajorityMatchesNaiveCounter) {
  util::Rng rng(7);
  for (const std::size_t n : kInputCounts) {
    for (const std::size_t words : kWordCounts) {
      std::vector<Words> pos_rows;
      std::vector<Words> level_rows;
      std::vector<Words> bound;
      for (std::size_t i = 0; i < n; ++i) {
        pos_rows.push_back(random_words(words, rng));
        level_rows.push_back(random_words(words, rng));
        Words b(words);
        for (std::size_t w = 0; w < words; ++w) {
          b[w] = pos_rows[i][w] ^ level_rows[i][w];
        }
        bound.push_back(std::move(b));
      }
      const Words tie = random_words(words, rng);
      ASSERT_EQ(run_bind_bundle(*tier_, pos_rows, level_rows, words, tie),
                naive_majority(bound, words, tie))
          << "n=" << n << " words=" << words;
    }
  }
}

TEST_P(BundleOracle, EvenCountTiesTakeTheTieBreak) {
  // Every bit of every pair (a, ~a) ties exactly, so the majority is the
  // tie word itself — for both tie-word polarities and a random one.
  util::Rng rng(8);
  for (const std::size_t pairs : {1u, 8u, 9u, 392u}) {
    for (const std::size_t words : kWordCounts) {
      std::vector<Words> pos_rows;
      std::vector<Words> level_rows;
      for (std::size_t p = 0; p < pairs; ++p) {
        const Words a = random_words(words, rng);
        Words not_a(words);
        for (std::size_t w = 0; w < words; ++w) {
          not_a[w] = ~a[w];
        }
        pos_rows.push_back(a);
        pos_rows.push_back(not_a);
        level_rows.emplace_back(words, 0);
        level_rows.emplace_back(words, 0);
      }
      for (const Words& tie : {Words(words, 0), Words(words, ~0ULL),
                               random_words(words, rng)}) {
        ASSERT_EQ(run_bind_bundle(*tier_, pos_rows, level_rows, words, tie),
                  tie)
            << "pairs=" << pairs << " words=" << words;
      }
    }
  }
}

TEST_P(BundleOracle, AccumulateMatchesNaiveCounts) {
  // bundle_accumulate in ragged chunks (the accumulator folds 16 rows at a
  // time, but the kernel takes any count) must leave plain binary counters.
  util::Rng rng(9);
  for (const std::size_t n : kInputCounts) {
    for (const std::size_t words : kWordCounts) {
      std::vector<Words> inputs;
      for (std::size_t i = 0; i < n; ++i) {
        inputs.push_back(random_words(words, rng));
      }
      const std::size_t plane_count =
          std::max<std::size_t>(4, std::bit_width(n));
      Words planes(plane_count * words, 0);
      for (std::size_t first = 0, chunk = 1; first < n;
           first += chunk, chunk = chunk % 37 + 7) {
        const std::size_t take = std::min(chunk, n - first);
        std::vector<const std::uint64_t*> rows;
        for (std::size_t i = first; i < first + take; ++i) {
          rows.push_back(inputs[i].data());
        }
        tier_->bundle_accumulate(rows.data(), take, words, planes.data(),
                                 plane_count);
      }
      const auto expected = naive_counts(inputs, words);
      for (std::size_t bit = 0; bit < words * 64; ++bit) {
        std::size_t count = 0;
        for (std::size_t p = 0; p < plane_count; ++p) {
          count |= static_cast<std::size_t>(
                       (planes[p * words + bit / 64] >> (bit % 64)) & 1u)
                   << p;
        }
        ASSERT_EQ(count, expected[bit])
            << "n=" << n << " words=" << words << " bit=" << bit;
      }
    }
  }
}

using ScoreOracle = TierTest;

TEST_P(ScoreOracle, HammingKernelsMatchNaivePopcount) {
  util::Rng rng(10);
  for (const std::size_t words : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 41u, 157u}) {
    const Words query = random_words(words, rng);
    std::vector<Words> rows;
    std::vector<const std::uint64_t*> row_ptrs;
    for (int r = 0; r < 4; ++r) {
      rows.push_back(random_words(words, rng));
    }
    for (const Words& row : rows) {
      row_ptrs.push_back(row.data());
    }
    std::size_t four[4];
    tier_->hamming4(query.data(), row_ptrs.data(), words, four);
    for (std::size_t r = 0; r < 4; ++r) {
      std::size_t expected = 0;
      for (std::size_t w = 0; w < words; ++w) {
        expected +=
            static_cast<std::size_t>(std::popcount(query[w] ^ rows[r][w]));
      }
      EXPECT_EQ(tier_->hamming(query.data(), rows[r].data(), words), expected)
          << "words=" << words;
      EXPECT_EQ(four[r], expected) << "words=" << words << " row=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, BundleOracle,
                         ::testing::Values("avx512", "avx2", "scalar"),
                         tier_label);
INSTANTIATE_TEST_SUITE_P(Tiers, ScoreOracle,
                         ::testing::Values("avx512", "avx2", "scalar"),
                         tier_label);

TEST(BundleOracle, DispatchSelectsTheFastestSupportedTier) {
  const auto tiers = hv::supported_kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(&hv::kernel_tier(), &tiers.front());
  EXPECT_EQ(std::string(tiers.back().name), "scalar");
}

TEST(BundleOracle, AccumulatorMatchesNaiveCounter) {
  // BitSliceAccumulator through the selected tier, observed with rows
  // still pending (n not a multiple of 16) and after whole folds.
  util::Rng rng(11);
  for (const std::size_t n : kInputCounts) {
    for (const std::size_t dim : {1u, 63u, 64u, 65u, 500u, 2621u, 10000u}) {
      const std::size_t words = (dim + 63) / 64;
      hv::BitSliceAccumulator acc(dim);
      std::vector<Words> inputs;
      for (std::size_t i = 0; i < n; ++i) {
        const hv::BitVector v = hv::BitVector::random(dim, rng);
        acc.add(v);
        inputs.emplace_back(v.words().begin(), v.words().end());
      }
      const hv::BitVector tie = hv::BitVector::random(dim, rng);
      const Words tie_words(tie.words().begin(), tie.words().end());
      const hv::BitVector majority = acc.majority(tie);
      ASSERT_EQ(Words(majority.words().begin(), majority.words().end()),
                naive_majority(inputs, words, tie_words))
          << "n=" << n << " dim=" << dim;
      const auto counts = naive_counts(inputs, words);
      const hv::IntVector sums = acc.to_int_vector();
      for (std::size_t i = 0; i < dim; ++i) {
        ASSERT_EQ(acc.count(i), counts[i]) << "n=" << n << " i=" << i;
        ASSERT_EQ(sums.get(i), static_cast<std::int32_t>(n) -
                                   2 * static_cast<std::int32_t>(counts[i]));
      }
    }
  }
}

TEST(BundleOracle, RecordEncodeMatchesNaiveXorAndCount) {
  // Paper scale, D = 10000 and N = 784 (even, so ties occur and must take
  // the encoder's tie-break), against Eq. 1 spelled out bit by bit.
  hdc::RecordEncoderConfig config;
  config.dim = 10000;
  config.feature_count = 784;
  config.levels = 32;
  config.seed = 23;
  const hdc::RecordEncoder encoder(config);
  util::Rng rng(12);
  for (int sample = 0; sample < 3; ++sample) {
    std::vector<float> features(config.feature_count);
    for (float& f : features) {
      f = rng.next_float();
    }
    std::vector<std::size_t> negatives(config.dim, 0);
    for (std::size_t i = 0; i < config.feature_count; ++i) {
      const hv::BitVector& position = encoder.positions().at(i);
      const hv::BitVector& level = encoder.levels().for_value(features[i]);
      for (std::size_t d = 0; d < config.dim; ++d) {
        negatives[d] += position.get_bit(d) != level.get_bit(d) ? 1 : 0;
      }
    }
    const hv::BitVector encoded = encoder.encode(features);
    const hv::BitVector& tie = encoder.tie_break();
    std::size_t ties = 0;
    for (std::size_t d = 0; d < config.dim; ++d) {
      const std::size_t twice = 2 * negatives[d];
      const bool expected = twice > config.feature_count ||
                            (twice == config.feature_count && tie.get_bit(d));
      ties += twice == config.feature_count ? 1 : 0;
      ASSERT_EQ(encoded.get_bit(d), expected)
          << "sample " << sample << " component " << d;
    }
    EXPECT_GT(ties, 0u) << "no tie exercised the sgn(0) rule";
  }
}

}  // namespace
}  // namespace lehdc
