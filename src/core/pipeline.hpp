// High-level end-to-end API: raw dataset → record encoding → any training
// strategy → deployable classifier.
//
// This is the public entry point a downstream user adopts; the examples and
// every bench harness are built on it. The encoder is constructed once and
// shared across strategies (LeHDC never changes encoding or inference,
// Sec. 4), so strategy comparisons are apples-to-apples.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/lehdc_trainer.hpp"
#include "data/dataset.hpp"
#include "hdc/encoder.hpp"
#include "train/adapt.hpp"
#include "train/confusion.hpp"
#include "train/multimodel.hpp"
#include "train/nonbinary.hpp"
#include "train/retrain.hpp"
#include "train/trainer.hpp"

namespace lehdc::core {

enum class Strategy {
  kBaseline,
  kMultiModel,
  kRetraining,
  kEnhancedRetraining,
  kAdaptHd,
  kNonBinary,
  kLeHdc,
};

/// Display name used in table rows ("Baseline", "Multi-Model", ...).
[[nodiscard]] std::string strategy_name(Strategy strategy);

/// Case-insensitive reverse lookup; throws std::invalid_argument.
[[nodiscard]] Strategy strategy_from_name(const std::string& name);

struct PipelineConfig {
  /// Hypervector dimension D (paper default 10,000).
  std::size_t dim = 10000;
  /// Feature value quantization levels Q.
  std::size_t levels = 32;
  /// Master seed: item memories, tie-breaks and training stochasticity.
  std::uint64_t seed = 1;

  Strategy strategy = Strategy::kLeHdc;

  // Fault tolerance (epoch-based strategies, i.e. LeHDC): write a
  // crash-safe checkpoint every `checkpoint_every` epochs (0 disables),
  // and/or resume a killed run from `resume_path`. See core/checkpoint.hpp.
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;
  std::string resume_path;

  // Per-strategy knobs; only the block matching `strategy` is read.
  LeHdcConfig lehdc;
  train::RetrainConfig retrain;
  train::MultiModelConfig multimodel;
  train::AdaptConfig adapt;
  train::NonBinaryConfig nonbinary;
};

/// Builds the Trainer implementing config.strategy.
[[nodiscard]] std::unique_ptr<train::Trainer> make_trainer(
    const PipelineConfig& config);

/// Wall-clock cost of one fit() run, split by stage.
struct StageTimings {
  double encode_seconds = 0.0;  // dataset encoding (train + test)
  double train_seconds = 0.0;   // the strategy's own training loop
  double eval_seconds = 0.0;    // the final train/test accuracy passes
};

struct FitReport {
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;  // 0 when no test set given
  StageTimings timings;
  std::size_t epochs_run = 0;
  /// Per-epoch points; non-empty only when fit() ran with an observer.
  std::vector<train::EpochPoint> trajectory;
};

/// Structured result of Pipeline::evaluate — accuracy plus everything a
/// caller previously had to recompute or obtain through side channels.
struct EvalResult {
  double accuracy = 0.0;
  std::size_t samples = 0;
  /// Full confusion matrix of the pass; null when the dataset was empty.
  std::shared_ptr<const train::ConfusionMatrix> confusion;
  /// Wall time spent encoding raw samples, summed over workers (exceeds
  /// elapsed time when the pass runs on several threads).
  double encode_seconds = 0.0;
  /// Wall time spent scoring encoded blocks, summed over workers.
  double score_seconds = 0.0;
  /// Item-memory bytes the encode stage gathered over the whole pass (see
  /// hdc::PredictStats).
  std::uint64_t encode_bytes = 0;
};

class Pipeline {
 public:
  explicit Pipeline(const PipelineConfig& config);

  /// Rebuilds a previously fitted pipeline from persisted parts (see
  /// core/pipeline_io.hpp). Only strategies exporting a plain binary
  /// classifier (baseline, retraining variants, LeHDC) are restorable.
  [[nodiscard]] static Pipeline restore(
      const PipelineConfig& config,
      const hdc::RecordEncoderConfig& encoder_config,
      hdc::BinaryClassifier classifier);

  /// Encodes and trains. The value range for quantization is taken from
  /// the training set. Preconditions: !train.empty(); if test is given it
  /// must share the training schema. Attaching an observer reports every
  /// epoch (see train::EpochObserver) and fills FitReport::trajectory;
  /// pass train::record_trajectory() for collection alone.
  FitReport fit(const data::Dataset& train,
                const data::Dataset* test = nullptr,
                const train::EpochObserver& observer = {});

  /// Predicts the class of one raw feature vector. Precondition: fitted.
  [[nodiscard]] int predict(std::span<const float> features) const;

  /// Classifies a whole raw dataset in one batched pass over the model's
  /// unified predict_queries surface: each worker block-encodes up to 64
  /// samples, scores them and reuses the buffers, so the batch is never
  /// encoded whole. Results are bit-identical to per-sample predict for
  /// every worker count. Precondition: fitted; the dataset must match the
  /// encoder's feature count.
  [[nodiscard]] std::vector<int> predict_batch(
      const data::Dataset& dataset) const;

  /// Classifies a batch of already-encoded hypervectors through the same
  /// surface. Precondition: fitted; out.size() == queries.size().
  void predict_batch(std::span<const hv::BitVector> queries,
                     std::span<int> out) const;

  /// Evaluates a raw dataset (blocked batched encode+predict): accuracy,
  /// confusion matrix and per-stage wall times in one pass. Predictions —
  /// and therefore accuracy and the confusion matrix — are bit-identical
  /// for every worker count; the timings are measurements and are not.
  [[nodiscard]] EvalResult evaluate(const data::Dataset& dataset) const;

  [[nodiscard]] bool fitted() const noexcept { return model_ != nullptr; }
  [[nodiscard]] const train::Model& model() const;
  [[nodiscard]] const hdc::Encoder& encoder() const;
  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  void ensure_encoder(const data::Dataset& train);

  PipelineConfig config_;
  std::unique_ptr<hdc::RecordEncoder> encoder_;
  std::shared_ptr<const train::Model> model_;
};

}  // namespace lehdc::core
