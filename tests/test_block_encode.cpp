// Block-encode surface parity: the block cursor must reproduce per-sample
// encode() bit for bit, raw-batch prediction through the shared block
// encode must be bit-identical to encode-then-score, and both invariants
// must hold at paper scale (D = 10000), across odd word-range sizes, odd
// sample counts, every classifier kind and every worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "data/dataset.hpp"
#include "hdc/batch_scorer.hpp"
#include "hdc/block_encoder.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoded_dataset.hpp"
#include "hdc/encoder.hpp"
#include "hdc/query_batch.hpp"
#include "hv/bitvector.hpp"
#include "hv/intvector.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace lehdc {
namespace {

const std::size_t kWorkerCounts[] = {1, 4, 0};

data::Dataset random_dataset(std::size_t samples, std::size_t features,
                             std::size_t classes, util::Rng& rng) {
  data::Dataset dataset(features, classes);
  std::vector<float> row(features);
  for (std::size_t i = 0; i < samples; ++i) {
    for (float& v : row) {
      v = rng.next_float();
    }
    dataset.add_sample(row, static_cast<int>(i % classes));
  }
  return dataset;
}

hdc::RecordEncoder make_encoder(std::size_t dim, std::size_t features,
                                std::uint64_t seed = 17) {
  hdc::RecordEncoderConfig config;
  config.dim = dim;
  config.feature_count = features;
  config.levels = 16;
  config.seed = seed;
  return hdc::RecordEncoder(config);
}

// Drains a cursor in `step`-word ranges into per-sample word vectors.
std::vector<std::vector<std::uint64_t>> drain_cursor(
    hdc::BlockEncodeCursor& cursor, std::size_t count, std::size_t word_count,
    std::size_t step) {
  std::vector<std::vector<std::uint64_t>> out(
      count, std::vector<std::uint64_t>(word_count, ~std::uint64_t{0}));
  std::vector<std::uint64_t> buffer(count * step);
  std::size_t word_pos = 0;
  while (const std::size_t produced = cursor.encode_words(step, buffer)) {
    EXPECT_LE(word_pos + produced, word_count) << "cursor overran";
    for (std::size_t s = 0; s < count; ++s) {
      std::memcpy(out[s].data() + word_pos, buffer.data() + s * produced,
                  produced * sizeof(std::uint64_t));
    }
    word_pos += produced;
  }
  EXPECT_EQ(word_pos, word_count) << "cursor stopped early";
  EXPECT_EQ(cursor.encode_words(step, buffer), 0u) << "exhausted cursor";
  return out;
}

std::vector<hv::BitVector> random_hvs(std::size_t count, std::size_t dim,
                                      util::Rng& rng) {
  std::vector<hv::BitVector> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(hv::BitVector::random(dim, rng));
  }
  return out;
}

// ----------------------------------------------------- cursor bit parity ---

TEST(BlockEncodeCursor, BothPathsMatchPerSampleEncodeAcrossShapes) {
  util::Rng rng(101);
  // Dims straddling word boundaries (tail masking) and sample counts
  // straddling the 64-sample block size.
  for (const std::size_t dim : {std::size_t{65}, std::size_t{128},
                                std::size_t{1000}}) {
    const auto encoder = make_encoder(dim, 7);
    for (const std::size_t count :
         {std::size_t{1}, std::size_t{5}, std::size_t{64}, std::size_t{67}}) {
      const auto dataset = random_dataset(count, 7, 3, rng);
      std::vector<hv::BitVector> expected;
      for (std::size_t i = 0; i < count; ++i) {
        expected.push_back(encoder.encode(dataset.sample(i)));
      }
      // Odd word steps exercise ragged final ranges; word_count() covers
      // the single-range case.
      for (const std::size_t step :
           {std::size_t{1}, std::size_t{3}, std::size_t{7},
            encoder.word_count()}) {
        auto cursor = encoder.make_cursor();
        cursor->begin(dataset.rows(0, count), count);
        const auto words =
            drain_cursor(*cursor, count, encoder.word_count(), step);
        for (std::size_t s = 0; s < count; ++s) {
          ASSERT_EQ(std::memcmp(words[s].data(), expected[s].words().data(),
                                encoder.word_count() * sizeof(std::uint64_t)),
                    0)
              << "dim=" << dim << " count=" << count << " step=" << step
              << " sample=" << s;
        }
      }
    }
  }
}

TEST(BlockEncodeCursor, PaperScaleDim10000Parity) {
  util::Rng rng(103);
  const std::size_t dim = 10000;  // 157 words administered, ragged tail
  const auto encoder = make_encoder(dim, 12);
  const std::size_t count = 9;
  const auto dataset = random_dataset(count, 12, 2, rng);
  std::vector<hv::BitVector> expected;
  for (std::size_t i = 0; i < count; ++i) {
    expected.push_back(encoder.encode(dataset.sample(i)));
  }
  const std::size_t range =
      hdc::block_range_words(encoder.feature_count(), encoder.word_count());
  auto cursor = encoder.make_cursor();
  cursor->begin(dataset.rows(0, count), count);
  const auto words =
      drain_cursor(*cursor, count, encoder.word_count(), range);
  for (std::size_t s = 0; s < count; ++s) {
    ASSERT_EQ(std::memcmp(words[s].data(), expected[s].words().data(),
                          encoder.word_count() * sizeof(std::uint64_t)),
              0)
        << "sample=" << s;
  }
}

TEST(BlockEncodeCursor, CursorIsReusableAcrossBlocks) {
  util::Rng rng(107);
  const auto encoder = make_encoder(320, 5);
  const auto dataset = random_dataset(40, 5, 2, rng);
  auto cursor = encoder.make_cursor();
  for (const auto& [begin, count] :
       {std::pair<std::size_t, std::size_t>{0, 16},
        std::pair<std::size_t, std::size_t>{16, 3},
        std::pair<std::size_t, std::size_t>{19, 21}}) {
    cursor->begin(dataset.rows(begin, count), count);
    const auto words = drain_cursor(*cursor, count, encoder.word_count(), 4);
    for (std::size_t s = 0; s < count; ++s) {
      const hv::BitVector expected = encoder.encode(dataset.sample(begin + s));
      ASSERT_EQ(std::memcmp(words[s].data(), expected.words().data(),
                            encoder.word_count() * sizeof(std::uint64_t)),
                0)
          << "begin=" << begin << " s=" << s;
    }
  }
}

// ------------------------------------------------------- range sizing ---

TEST(BlockEncode, BlockRangeWordsIsBoundedAndCacheSized) {
  // Never exceeds the hypervector, never below the 8-word floor (unless the
  // hypervector itself is shorter), and at paper scale stays within the
  // 256 KiB position-scratch budget.
  EXPECT_EQ(hdc::block_range_words(784, 157), 41u);
  EXPECT_LE(hdc::block_range_words(784, 157) * 784 * sizeof(std::uint64_t),
            std::size_t{256 * 1024});
  EXPECT_EQ(hdc::block_range_words(1, 157), 157u);      // capped at D words
  EXPECT_EQ(hdc::block_range_words(1u << 20, 157), 8u); // floored
  EXPECT_EQ(hdc::block_range_words(0, 157), 157u);      // no div-by-zero
}

// ------------------------------------- raw batch vs encode-then-score ---

TEST(BlockEncodeScore, BinaryMatchesEncodeThenScore) {
  util::Rng rng(109);
  const std::size_t dim = 503;
  const auto encoder = make_encoder(dim, 9);
  const hdc::BinaryClassifier classifier(random_hvs(6, dim, rng));
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{200}}) {
    const auto dataset = random_dataset(batch, 9, 6, rng);
    // Reference: materialize every hypervector, score through the classic
    // batched path.
    std::vector<hv::BitVector> encoded;
    for (std::size_t i = 0; i < batch; ++i) {
      encoded.push_back(encoder.encode(dataset.sample(i)));
    }
    for (const std::size_t workers : kWorkerCounts) {
      util::ThreadPool pool(workers);
      const hdc::BatchScorer scorer(classifier, &pool);
      std::vector<int> reference(batch, -1);
      scorer.predict_batch(encoded, reference);
      std::vector<int> raw(batch, -2);
      scorer.predict_queries(hdc::QueryBatch(dataset, encoder), raw);
      ASSERT_EQ(raw, reference) << "batch=" << batch << " workers=" << workers;
    }
  }
}

TEST(BlockEncodeScore, EnsembleMatchesEncodeThenScore) {
  util::Rng rng(113);
  const std::size_t dim = 777;
  const auto encoder = make_encoder(dim, 6);
  std::vector<std::vector<hv::BitVector>> models;
  for (std::size_t k = 0; k < 4; ++k) {
    models.push_back(random_hvs(3, dim, rng));
  }
  const hdc::EnsembleClassifier classifier(std::move(models));
  const auto dataset = random_dataset(150, 6, 3, rng);
  std::vector<hv::BitVector> encoded;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    encoded.push_back(encoder.encode(dataset.sample(i)));
  }
  for (const std::size_t workers : kWorkerCounts) {
    util::ThreadPool pool(workers);
    const hdc::BatchScorer scorer(classifier, &pool);
    std::vector<int> reference(dataset.size(), -1);
    scorer.predict_batch(encoded, reference);
    std::vector<int> raw(dataset.size(), -2);
    scorer.predict_queries(hdc::QueryBatch(dataset, encoder), raw);
    ASSERT_EQ(raw, reference) << "workers=" << workers;
  }
}

TEST(BlockEncodeScore, NonBinaryMatchesEncodeThenScore) {
  util::Rng rng(127);
  const std::size_t dim = 500;
  const auto encoder = make_encoder(dim, 8);
  std::vector<hv::IntVector> classes;
  for (std::size_t k = 0; k < 5; ++k) {
    hv::IntVector accumulator(dim);
    for (std::size_t s = 0; s < 5; ++s) {
      accumulator.add(hv::BitVector::random(dim, rng));
    }
    classes.push_back(std::move(accumulator));
  }
  const hdc::NonBinaryClassifier classifier(std::move(classes));
  const auto dataset = random_dataset(100, 8, 5, rng);
  std::vector<hv::BitVector> encoded;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    encoded.push_back(encoder.encode(dataset.sample(i)));
  }
  for (const std::size_t workers : kWorkerCounts) {
    util::ThreadPool pool(workers);
    const hdc::BatchScorer scorer(classifier, &pool);
    std::vector<int> reference(dataset.size(), -1);
    scorer.predict_batch(encoded, reference);
    std::vector<int> out(dataset.size(), -2);
    scorer.predict_queries(hdc::QueryBatch(dataset, encoder), out);
    ASSERT_EQ(out, reference) << "workers=" << workers;
  }
}

TEST(BlockEncodeScore, PaperScaleParity) {
  util::Rng rng(131);
  const std::size_t dim = 10000;
  const auto encoder = make_encoder(dim, 20);
  const hdc::BinaryClassifier classifier(random_hvs(10, dim, rng));
  const auto dataset = random_dataset(70, 20, 10, rng);
  std::vector<hv::BitVector> encoded;
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    encoded.push_back(encoder.encode(dataset.sample(i)));
  }
  const hdc::BatchScorer scorer(classifier);
  std::vector<int> reference(dataset.size(), -1);
  scorer.predict_batch(encoded, reference);
  std::vector<int> raw(dataset.size(), -2);
  scorer.predict_queries(hdc::QueryBatch(dataset, encoder), raw);
  EXPECT_EQ(raw, reference);
}

TEST(BatchScorerFused, StatsAccountEncodeTraffic) {
  util::Rng rng(137);
  const std::size_t dim = 1000;
  const auto encoder = make_encoder(dim, 16);
  const hdc::BinaryClassifier classifier(random_hvs(4, dim, rng));
  const hdc::BatchScorer scorer(classifier);
  const auto dataset = random_dataset(128, 16, 4, rng);

  hdc::PredictStats stats;
  std::vector<int> out(dataset.size());
  scorer.predict_queries(hdc::QueryBatch(dataset, encoder), out, &stats);

  EXPECT_EQ(stats.samples, dataset.size());
  // Each 64-sample block gathers the N·W·8 position bytes once — 2 blocks
  // of 64 here.
  const std::uint64_t position_bytes =
      16u * encoder.word_count() * sizeof(std::uint64_t);
  EXPECT_EQ(stats.encode_bytes, position_bytes * 2);

  // Pre-encoded batches report no encode traffic.
  const auto queries = random_hvs(10, dim, rng);
  hdc::PredictStats pre;
  std::vector<int> pre_out(queries.size());
  scorer.predict_queries(hdc::QueryBatch(queries), pre_out, &pre);
  EXPECT_EQ(pre.encode_bytes, 0u);
  EXPECT_EQ(pre.samples, queries.size());
}

TEST(BlockEncodeScore, RawPredictRecordsEncodeMetrics) {
  util::Rng rng(149);
  const std::size_t dim = 300;
  const auto encoder = make_encoder(dim, 6);
  const hdc::BinaryClassifier classifier(random_hvs(3, dim, rng));
  const hdc::BatchScorer scorer(classifier);
  const auto dataset = random_dataset(130, 6, 3, rng);

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  auto& registry = obs::Registry::global();
  obs::Counter& samples = registry.counter("encode.samples");
  obs::Histogram& blocks = registry.histogram("encode.block_seconds");
  const std::uint64_t samples_before = samples.value();
  const std::uint64_t blocks_before = blocks.count();
  std::vector<int> out(dataset.size());
  scorer.predict_queries(hdc::QueryBatch(dataset, encoder), out);
  const std::uint64_t samples_added = samples.value() - samples_before;
  const std::uint64_t blocks_added = blocks.count() - blocks_before;
  obs::set_enabled(was_enabled);

  EXPECT_EQ(samples_added, 130u);
  EXPECT_EQ(blocks_added, 3u);  // blocks of 64, 64 and 2
}

// ------------------------------------------------- layered surfaces -------

TEST(BlockEncode, EncodeDatasetMatchesPerSampleEncode) {
  util::Rng rng(139);
  const auto encoder = make_encoder(650, 11);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{63}, std::size_t{130}}) {
    const auto dataset = random_dataset(count, 11, 3, rng);
    const hdc::EncodedDataset encoded = hdc::encode_dataset(encoder, dataset);
    ASSERT_EQ(encoded.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(encoded.hypervector(i), encoder.encode(dataset.sample(i)))
          << "count=" << count << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace lehdc
