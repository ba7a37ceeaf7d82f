#include "hdc/batch_scorer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "hv/batch_score.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"

namespace lehdc::hdc {

namespace {

// Queries handled per reduction chunk in correct_count: small enough that
// chunks outnumber workers for typical evaluation sets, large enough to
// amortize the scratch acquisition.
constexpr std::size_t kReductionChunk = 256;

obs::Counter& query_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("score.queries");
  return counter;
}

obs::Histogram& chunk_histogram() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("score.chunk_seconds");
  return histogram;
}

obs::Histogram& encode_bytes_histogram() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("encode.bytes_per_sample");
  return histogram;
}

}  // namespace

struct BatchScorer::Scratch {
  std::vector<std::int64_t> dots;
  std::vector<int> labels;
};

BatchScorer::BatchScorer(const BinaryClassifier& classifier,
                         util::ThreadPool* pool)
    : kind_(Kind::kBinary),
      pool_(pool),
      class_count_(classifier.class_count()),
      dim_(classifier.dim()) {
  util::expects(class_count_ > 0, "BatchScorer over an empty classifier");
  rows_.reserve(class_count_);
  for (std::size_t k = 0; k < class_count_; ++k) {
    rows_.push_back(classifier.class_hypervector(k).words().data());
  }
}

BatchScorer::BatchScorer(const EnsembleClassifier& classifier,
                         util::ThreadPool* pool)
    : kind_(Kind::kEnsemble),
      pool_(pool),
      class_count_(classifier.class_count()) {
  util::expects(class_count_ > 0, "BatchScorer over an empty classifier");
  const auto& models = classifier.models();
  dim_ = models.front().front().dim();
  rows_.reserve(class_count_ * classifier.models_per_class());
  // Flattened in (class, model) order — the per-sample scan order, so the
  // first-wins argmax over rows_ reproduces its tie-breaking exactly.
  for (std::size_t k = 0; k < models.size(); ++k) {
    for (const auto& model : models[k]) {
      rows_.push_back(model.words().data());
      row_class_.push_back(static_cast<int>(k));
    }
  }
}

BatchScorer::BatchScorer(const NonBinaryClassifier& classifier,
                         util::ThreadPool* pool)
    : kind_(Kind::kNonBinary),
      pool_(pool),
      class_count_(classifier.class_count()),
      nonbinary_(&classifier) {
  util::expects(class_count_ > 0, "BatchScorer over an empty classifier");
  dim_ = classifier.class_vector(0).dim();
  norms_.reserve(class_count_);
  // Precompute each class's cosine denominator ‖C_k‖·√D — the same doubles
  // IntVector::cosine produces per call, so cached scores stay bit-identical.
  const double sqrt_dim = std::sqrt(static_cast<double>(dim_));
  for (std::size_t k = 0; k < class_count_; ++k) {
    norms_.push_back(classifier.class_vector(k).norm() * sqrt_dim);
  }
}

BatchScorer::~BatchScorer() = default;

util::ThreadPool& BatchScorer::pool() const noexcept {
  return pool_ != nullptr ? *pool_ : util::ThreadPool::global();
}

std::unique_ptr<BatchScorer::Scratch> BatchScorer::acquire_scratch() const {
  {
    const util::MutexLock lock(scratch_mutex_);
    if (!free_scratch_.empty()) {
      auto scratch = std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<Scratch>();
}

void BatchScorer::release_scratch(std::unique_ptr<Scratch> scratch) const {
  const util::MutexLock lock(scratch_mutex_);
  free_scratch_.push_back(std::move(scratch));
}

double BatchScorer::cosine_score(const hv::BitVector& query,
                                 std::size_t k) const {
  if (norms_[k] == 0.0) {
    return 0.0;
  }
  return static_cast<double>(nonbinary_->class_vector(k).dot(query)) /
         norms_[k];
}

void BatchScorer::predict_range(std::span<const hv::BitVector> queries,
                                std::size_t begin, std::size_t end,
                                std::span<int> out, Scratch& scratch) const {
  if (kind_ == Kind::kNonBinary) {
    for (std::size_t i = begin; i < end; ++i) {
      const hv::BitVector& query = queries[i];
      int best = 0;
      double best_score = cosine_score(query, 0);
      for (std::size_t k = 1; k < class_count_; ++k) {
        const double score = cosine_score(query, k);
        if (score > best_score) {
          best_score = score;
          best = static_cast<int>(k);
        }
      }
      out[i] = best;
    }
    return;
  }
  scratch.dots.resize(rows_.size());
  for (std::size_t i = begin; i < end; ++i) {
    util::expects(queries[i].dim() == dim_,
                  "query/classifier dimension mismatch");
    hv::dot_rows(queries[i].words().data(), rows_, dim_, scratch.dots);
    std::size_t best_row = 0;
    std::int64_t best_score = scratch.dots[0];
    for (std::size_t r = 1; r < rows_.size(); ++r) {
      if (scratch.dots[r] > best_score) {
        best_score = scratch.dots[r];
        best_row = r;
      }
    }
    out[i] = kind_ == Kind::kBinary ? static_cast<int>(best_row)
                                    : row_class_[best_row];
  }
}

void BatchScorer::predict_encoded(std::span<const hv::BitVector> queries,
                                  std::span<int> out,
                                  PredictStats* stats) const {
  util::Mutex stats_mutex;
  pool().parallel_for(0, queries.size(),
                      [&](std::size_t lo, std::size_t hi) {
                        obs::ScopedTimer chunk_timer(chunk_histogram());
                        const util::Stopwatch watch;
                        auto scratch = acquire_scratch();
                        predict_range(queries, lo, hi, out, *scratch);
                        release_scratch(std::move(scratch));
                        if (stats != nullptr) {
                          const util::MutexLock lock(stats_mutex);
                          stats->score_seconds += watch.elapsed_seconds();
                        }
                      });
}

void BatchScorer::predict_blocked(const data::Dataset& dataset,
                                  const Encoder& encoder, std::span<int> out,
                                  PredictStats* stats) const {
  const std::size_t n = dataset.size();
  const std::size_t blocks =
      (n + kEncodeBlockSamples - 1) / kEncodeBlockSamples;
  util::Mutex stats_mutex;
  pool().parallel_for(0, blocks, [&](std::size_t lo, std::size_t hi) {
    obs::ScopedTimer chunk_timer(chunk_histogram());
    BlockEncodeWorker worker(encoder);
    std::vector<hv::BitVector> encoded(std::min(kEncodeBlockSamples, n));
    auto scratch = acquire_scratch();
    double local_encode = 0.0;
    double local_score = 0.0;
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t begin = b * kEncodeBlockSamples;
      const std::size_t count = std::min(n - begin, kEncodeBlockSamples);
      {
        const util::Stopwatch watch;
        worker.encode(dataset, begin, {encoded.data(), count});
        local_encode += watch.elapsed_seconds();
      }
      const util::Stopwatch watch;
      predict_range({encoded.data(), count}, 0, count,
                    out.subspan(begin, count), *scratch);
      local_score += watch.elapsed_seconds();
    }
    release_scratch(std::move(scratch));
    if (stats != nullptr) {
      const util::MutexLock lock(stats_mutex);
      stats->encode_seconds += local_encode;
      stats->score_seconds += local_score;
    }
  });
}

void BatchScorer::predict_queries(const QueryBatch& queries,
                                  std::span<int> out,
                                  PredictStats* stats) const {
  util::expects(out.size() == queries.size(),
                "predict_queries output span must match the batch size");
  if (stats != nullptr) {
    *stats = PredictStats{};
    stats->samples = queries.size();
  }
  if (queries.size() == 0) {
    return;
  }
  query_counter().add(queries.size());
  if (!queries.raw()) {
    predict_encoded(queries.encoded(), out, stats);
    return;
  }
  const data::Dataset& dataset = queries.samples();
  const Encoder& encoder = queries.encoder();
  util::expects(encoder.dim() == dim_,
                "query batch/classifier dimension mismatch");
  if (const auto* block = dynamic_cast<const BlockEncoder*>(&encoder)) {
    // Each encode block gathers the N·W·8 position bytes once.
    const std::uint64_t block_count =
        (dataset.size() + kEncodeBlockSamples - 1) / kEncodeBlockSamples;
    const std::uint64_t bytes =
        block_count * block->encode_bytes_per_sample(1);
    encode_bytes_histogram().observe(static_cast<double>(bytes) /
                                     static_cast<double>(dataset.size()));
    if (stats != nullptr) {
      stats->encode_bytes = bytes;
    }
  }
  predict_blocked(dataset, encoder, out, stats);
}

void BatchScorer::predict_batch(std::span<const hv::BitVector> queries,
                                std::span<int> out) const {
  predict_queries(QueryBatch(queries), out);
}

void BatchScorer::predict_batch(const EncodedDataset& dataset,
                                std::span<int> out) const {
  predict_queries(QueryBatch(dataset), out);
}

void BatchScorer::scores_batch(std::span<const hv::BitVector> queries,
                               std::span<std::int64_t> out) const {
  util::expects(kind_ != Kind::kNonBinary,
                "scores_batch: non-binary classifiers score by cosine; use "
                "cosine_scores_batch");
  util::expects(out.size() == queries.size() * class_count_,
                "scores_batch output span has the wrong size");
  if (queries.empty()) {
    return;
  }
  pool().parallel_for(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
    auto scratch = acquire_scratch();
    scratch->dots.resize(rows_.size());
    for (std::size_t i = lo; i < hi; ++i) {
      util::expects(queries[i].dim() == dim_,
                    "query/classifier dimension mismatch");
      const auto row_out = out.subspan(i * class_count_, class_count_);
      if (kind_ == Kind::kBinary) {
        hv::dot_rows(queries[i].words().data(), rows_, dim_, row_out);
        continue;
      }
      // Ensemble: per-class score is the best of its hypervectors.
      hv::dot_rows(queries[i].words().data(), rows_, dim_, scratch->dots);
      for (std::size_t k = 0; k < class_count_; ++k) {
        row_out[k] = std::numeric_limits<std::int64_t>::min();
      }
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        const auto k = static_cast<std::size_t>(row_class_[r]);
        row_out[k] = std::max(row_out[k], scratch->dots[r]);
      }
    }
    release_scratch(std::move(scratch));
  });
}

void BatchScorer::cosine_scores_batch(std::span<const hv::BitVector> queries,
                                      std::span<double> out) const {
  util::expects(kind_ == Kind::kNonBinary,
                "cosine_scores_batch is only defined for non-binary "
                "classifiers");
  util::expects(out.size() == queries.size() * class_count_,
                "cosine_scores_batch output span has the wrong size");
  if (queries.empty()) {
    return;
  }
  pool().parallel_for(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t k = 0; k < class_count_; ++k) {
        out[i * class_count_ + k] = cosine_score(queries[i], k);
      }
    }
  });
}

std::size_t BatchScorer::correct_count(const EncodedDataset& dataset) const {
  if (dataset.empty()) {
    return 0;
  }
  const std::span<const hv::BitVector> queries = dataset.hypervectors();
  const std::span<const int> labels = dataset.labels();
  // Fixed chunk grid with per-chunk partial counts summed in chunk order:
  // the reduction is identical for every worker count.
  const std::size_t chunks =
      (dataset.size() + kReductionChunk - 1) / kReductionChunk;
  query_counter().add(dataset.size());
  std::vector<std::size_t> partial(chunks, 0);
  pool().parallel_for(0, chunks, [&](std::size_t lo, std::size_t hi) {
    obs::ScopedTimer chunk_timer(chunk_histogram());
    auto scratch = acquire_scratch();
    for (std::size_t c = lo; c < hi; ++c) {
      const std::size_t begin = c * kReductionChunk;
      const std::size_t end =
          std::min(dataset.size(), begin + kReductionChunk);
      scratch->labels.resize(end - begin);
      predict_range(queries.subspan(begin, end - begin), 0, end - begin,
                    scratch->labels, *scratch);
      std::size_t correct = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if (scratch->labels[i - begin] == labels[i]) {
          ++correct;
        }
      }
      partial[c] = correct;
    }
    release_scratch(std::move(scratch));
  });
  std::size_t total = 0;
  for (const std::size_t p : partial) {
    total += p;
  }
  return total;
}

double BatchScorer::accuracy(const EncodedDataset& dataset) const {
  if (dataset.empty()) {
    return 0.0;
  }
  return static_cast<double>(correct_count(dataset)) /
         static_cast<double>(dataset.size());
}

}  // namespace lehdc::hdc
