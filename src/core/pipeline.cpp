#include "core/pipeline.hpp"

#include <algorithm>
#include <cctype>

#include "hdc/encoded_dataset.hpp"
#include "hdc/query_batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "train/baseline.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace lehdc::core {

namespace {
obs::Counter& batch_query_counter() {
  static obs::Counter& counter =
      obs::Registry::global().counter("pipeline.batch_queries");
  return counter;
}
}  // namespace

std::string strategy_name(Strategy strategy) {
  switch (strategy) {
    case Strategy::kBaseline:
      return "Baseline";
    case Strategy::kMultiModel:
      return "Multi-Model";
    case Strategy::kRetraining:
      return "Retraining";
    case Strategy::kEnhancedRetraining:
      return "EnhancedRetraining";
    case Strategy::kAdaptHd:
      return "AdaptHD";
    case Strategy::kNonBinary:
      return "NonBinaryHDC";
    case Strategy::kLeHdc:
      return "LeHDC";
  }
  return "?";
}

Strategy strategy_from_name(const std::string& name) {
  std::string key;
  for (const char ch : name) {
    if (ch == '-' || ch == '_' || ch == ' ') {
      continue;
    }
    key.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(ch))));
  }
  if (key == "baseline") return Strategy::kBaseline;
  if (key == "multimodel") return Strategy::kMultiModel;
  if (key == "retraining" || key == "retrain") return Strategy::kRetraining;
  if (key == "enhancedretraining" || key == "enhanced") {
    return Strategy::kEnhancedRetraining;
  }
  if (key == "adapthd" || key == "adapt") return Strategy::kAdaptHd;
  if (key == "nonbinaryhdc" || key == "nonbinary") return Strategy::kNonBinary;
  if (key == "lehdc") return Strategy::kLeHdc;
  throw std::invalid_argument("unknown strategy: " + name);
}

std::unique_ptr<train::Trainer> make_trainer(const PipelineConfig& config) {
  switch (config.strategy) {
    case Strategy::kBaseline:
      return std::make_unique<train::BaselineTrainer>();
    case Strategy::kMultiModel:
      return std::make_unique<train::MultiModelTrainer>(config.multimodel);
    case Strategy::kRetraining:
      return std::make_unique<train::RetrainingTrainer>(config.retrain);
    case Strategy::kEnhancedRetraining:
      return std::make_unique<train::EnhancedRetrainingTrainer>(
          config.retrain);
    case Strategy::kAdaptHd:
      return std::make_unique<train::AdaptHdTrainer>(config.adapt);
    case Strategy::kNonBinary:
      return std::make_unique<train::NonBinaryTrainer>(config.nonbinary);
    case Strategy::kLeHdc:
      return std::make_unique<LeHdcTrainer>(config.lehdc);
  }
  throw std::invalid_argument("unknown strategy enum value");
}

Pipeline::Pipeline(const PipelineConfig& config) : config_(config) {
  util::expects(config.dim > 0, "hypervector dimension must be positive");
  util::expects(config.levels >= 2, "need at least two quantization levels");
}

Pipeline Pipeline::restore(const PipelineConfig& config,
                           const hdc::RecordEncoderConfig& encoder_config,
                           hdc::BinaryClassifier classifier) {
  util::expects(encoder_config.dim == config.dim,
                "encoder/pipeline dimension mismatch");
  util::expects(classifier.dim() == config.dim,
                "classifier/pipeline dimension mismatch");
  Pipeline pipeline(config);
  pipeline.encoder_ = std::make_unique<hdc::RecordEncoder>(encoder_config);
  pipeline.model_ =
      std::make_shared<train::BinaryModel>(std::move(classifier));
  return pipeline;
}

void Pipeline::ensure_encoder(const data::Dataset& train) {
  if (encoder_ != nullptr &&
      encoder_->feature_count() == train.feature_count()) {
    return;
  }
  const auto [lo, hi] = train.value_range();
  hdc::RecordEncoderConfig cfg;
  cfg.dim = config_.dim;
  cfg.feature_count = train.feature_count();
  cfg.levels = config_.levels;
  cfg.range_lo = lo;
  cfg.range_hi = hi > lo ? hi : lo + 1.0f;
  cfg.seed = config_.seed;
  encoder_ = std::make_unique<hdc::RecordEncoder>(cfg);
}

FitReport Pipeline::fit(const data::Dataset& train, const data::Dataset* test,
                        const train::EpochObserver& observer) {
  util::expects(!train.empty(), "cannot fit on an empty dataset");
  if (test != nullptr) {
    util::expects(test->feature_count() == train.feature_count() &&
                      test->class_count() == train.class_count(),
                  "train/test schema mismatch");
  }
  ensure_encoder(train);

  FitReport report;
  const util::Stopwatch encode_timer;
  hdc::EncodedDataset encoded_train;
  hdc::EncodedDataset encoded_test;
  {
    const obs::TraceSpan span("pipeline.fit.encode");
    encoded_train = hdc::encode_dataset(*encoder_, train);
    if (test != nullptr) {
      encoded_test = hdc::encode_dataset(*encoder_, *test);
    }
  }
  report.timings.encode_seconds = encode_timer.elapsed_seconds();

  const auto trainer = make_trainer(config_);
  train::TrainOptions options;
  options.seed = config_.seed;
  options.epoch_observer = observer;
  options.checkpoint_every = config_.checkpoint_every;
  options.checkpoint_path = config_.checkpoint_path;
  options.resume_path = config_.resume_path;
  options.test = (test != nullptr && !encoded_test.empty()) ? &encoded_test
                                                            : nullptr;
  train::TrainResult result;
  {
    const obs::TraceSpan span("pipeline.fit.train");
    result = trainer->train(encoded_train, options);
  }
  model_ = result.model;

  report.timings.train_seconds = result.train_seconds;
  report.epochs_run = result.epochs_run;
  report.trajectory = std::move(result.trajectory);
  const util::Stopwatch eval_timer;
  {
    const obs::TraceSpan span("pipeline.fit.eval");
    report.train_accuracy = model_->accuracy(encoded_train);
    if (options.test != nullptr) {
      report.test_accuracy = model_->accuracy(encoded_test);
    }
  }
  report.timings.eval_seconds = eval_timer.elapsed_seconds();
  return report;
}

int Pipeline::predict(std::span<const float> features) const {
  util::expects(fitted(), "predict before fit");
  return model_->predict(encoder_->encode(features));
}

std::vector<int> Pipeline::predict_batch(
    const data::Dataset& dataset) const {
  util::expects(fitted(), "predict_batch before fit");
  util::expects(dataset.feature_count() == encoder_->feature_count(),
                "dataset/encoder feature count mismatch");
  std::vector<int> out(dataset.size());
  if (dataset.empty()) {
    return out;
  }
  const obs::TraceSpan span("pipeline.predict_batch");
  batch_query_counter().add(dataset.size());
  model_->predict_queries(
      hdc::QueryBatch(dataset, *encoder_), out);
  return out;
}

void Pipeline::predict_batch(std::span<const hv::BitVector> queries,
                             std::span<int> out) const {
  util::expects(fitted(), "predict_batch before fit");
  model_->predict_queries(hdc::QueryBatch(queries), out);
}

EvalResult Pipeline::evaluate(const data::Dataset& dataset) const {
  util::expects(fitted(), "evaluate before fit");
  EvalResult result;
  result.samples = dataset.size();
  if (dataset.empty()) {
    return result;
  }
  util::expects(dataset.feature_count() == encoder_->feature_count(),
                "dataset/encoder feature count mismatch");
  const obs::TraceSpan span("pipeline.predict_batch");
  batch_query_counter().add(dataset.size());
  std::vector<int> predicted(dataset.size());
  hdc::PredictStats stats;
  model_->predict_queries(
      hdc::QueryBatch(dataset, *encoder_), predicted,
      &stats);
  result.encode_seconds = stats.encode_seconds;
  result.score_seconds = stats.score_seconds;
  result.encode_bytes = stats.encode_bytes;

  // The matrix must admit every label either side produced (a model can
  // predict a class the evaluation split happens to lack).
  std::size_t classes = dataset.class_count();
  for (const int p : predicted) {
    classes = std::max(classes, static_cast<std::size_t>(p) + 1);
  }
  auto confusion = std::make_shared<train::ConfusionMatrix>(classes);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    confusion->add(dataset.label(i), predicted[i]);
  }
  result.accuracy = confusion->accuracy();
  result.confusion = std::move(confusion);
  return result;
}

const train::Model& Pipeline::model() const {
  util::expects(fitted(), "model() before fit");
  return *model_;
}

const hdc::Encoder& Pipeline::encoder() const {
  util::expects(encoder_ != nullptr, "encoder() before fit");
  return *encoder_;
}

}  // namespace lehdc::core
