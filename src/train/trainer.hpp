// The common interface every HDC training strategy implements.
//
// The paper compares four strategies on identical encoded inputs (Table 1):
// baseline bundling, multi-model [8], retraining [4] and LeHDC. All of them
// — plus the enhanced-retraining and AdaptHD variants discussed in Sec. 3 —
// implement Trainer, so the bench harnesses and examples can sweep
// strategies uniformly. A Trainer is immutable and reusable: train() may be
// called repeatedly (e.g. once per trial seed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hdc/batch_scorer.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoded_dataset.hpp"

namespace lehdc::train {

/// A trained model: the minimal inference surface shared by single-vector,
/// ensemble and non-binary classifiers. The batch entry points are the
/// primary inference path; predict(query) is batch-of-1.
class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] virtual int predict(const hv::BitVector& query) const = 0;

  /// THE batched prediction surface: classifies any hdc::QueryBatch view
  /// (already-encoded hypervectors, an EncodedDataset, or raw samples plus
  /// their encoder), bit-identically to per-sample encode + predict. The
  /// classifier-backed models override it with hdc::BatchScorer's blocked
  /// path; the default (for custom Model subclasses) encodes the batch with
  /// hdc::encode_dataset and routes through predict_batch. `stats` (optional) receives
  /// per-stage seconds and encode bytes. Precondition:
  /// out.size() == queries.size().
  virtual void predict_queries(const hdc::QueryBatch& queries,
                               std::span<int> out,
                               hdc::PredictStats* stats = nullptr) const;

  /// Adapter: predict_queries over already-encoded hypervectors. Results
  /// are bit-identical to calling predict per query. The default loops;
  /// the classifier-backed models override predict_queries instead.
  virtual void predict_batch(std::span<const hv::BitVector> queries,
                             std::span<int> out) const {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      out[i] = predict(queries[i]);
    }
  }

  /// Fraction of correctly classified samples in [0, 1]; 0 on empty input.
  /// Built on predict_batch, so worker count never changes the result.
  [[nodiscard]] virtual double accuracy(
      const hdc::EncodedDataset& dataset) const {
    if (dataset.empty()) {
      return 0.0;
    }
    std::vector<int> predicted(dataset.size());
    predict_batch(dataset.hypervectors(), predicted);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
      if (predicted[i] == dataset.label(i)) {
        ++correct;
      }
    }
    return static_cast<double>(correct) /
           static_cast<double>(dataset.size());
  }

  /// Model storage in bits (Sec. 5.1 resource comparison).
  [[nodiscard]] virtual std::size_t storage_bits() const noexcept = 0;

  /// Non-null when the model is a plain binary classifier (baseline /
  /// retraining / LeHDC all export exactly K binary hypervectors).
  [[nodiscard]] virtual const hdc::BinaryClassifier* as_binary()
      const noexcept {
    return nullptr;
  }
};

/// One point of a training trajectory (drives Fig. 3 and Fig. 5).
struct EpochPoint {
  std::size_t epoch = 0;
  double train_accuracy = 0.0;
  double test_accuracy = 0.0;  // 0 when no test set was supplied
  double train_loss = 0.0;     // strategy-specific (0 if undefined)
};

/// What an epoch observer sees after each training epoch: the trajectory
/// point plus wall-clock timings. `epoch_seconds` is the work time since
/// the previous event (update passes, shuffling, checkpointing);
/// `eval_seconds` is the extra cost of the snapshot evaluation that
/// produced `point` — only incurred because an observer is attached.
struct EpochEvent {
  EpochPoint point;
  double epoch_seconds = 0.0;
  double eval_seconds = 0.0;
};

/// Per-epoch callback invoked by every epoch-based strategy (single-pass
/// strategies emit one event for their only pass). Attaching an observer
/// is what turns on per-epoch snapshot evaluation; without one, trainers
/// skip that cost entirely. Observers run on the training thread and must
/// not retain references past the call.
using EpochObserver = std::function<void(const EpochEvent&)>;

/// The canonical "just collect the trajectory" observer: a no-op whose
/// presence makes train() record TrainResult::trajectory. Replaces the
/// removed TrainOptions::record_trajectory flag.
[[nodiscard]] EpochObserver record_trajectory();

struct TrainOptions {
  /// Seed for any stochasticity inside the strategy (shuffling, dropout,
  /// stochastic flips, tie-breaks).
  std::uint64_t seed = 1;

  /// Optional held-out set evaluated per epoch when an observer is set.
  const hdc::EncodedDataset* test = nullptr;

  /// Per-epoch observer. When set, each epoch is snapshot-evaluated (one
  /// extra inference pass over train and, if given, test) and reported;
  /// train() additionally collects the points into
  /// TrainResult::trajectory. Use record_trajectory() for collection
  /// without a custom callback.
  EpochObserver epoch_observer;

  // --- Fault tolerance (honored by epoch-based trainers, i.e. LeHDC;
  // single-pass strategies ignore these). ---

  /// Write a crash-safe checkpoint to `checkpoint_path` every
  /// `checkpoint_every` epochs (0 disables checkpointing).
  std::size_t checkpoint_every = 0;
  std::string checkpoint_path;

  /// Resume a previous run from this checkpoint file. The resumed run
  /// executes the remaining epochs and yields a final model bit-identical
  /// to the uninterrupted run. Empty disables.
  std::string resume_path;
};

struct TrainResult {
  std::shared_ptr<const Model> model;
  /// One point per observed epoch; empty when no observer was attached.
  std::vector<EpochPoint> trajectory;
  std::size_t epochs_run = 0;
  double train_seconds = 0.0;
};

class Trainer {
 public:
  virtual ~Trainer() = default;

  /// Strategy name as printed in table rows (e.g. "Retraining").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Trains on the encoded dataset. Precondition: !train_set.empty().
  /// Template method: when an observer is attached it is wrapped so every
  /// reported EpochPoint also lands in TrainResult::trajectory, then the
  /// strategy's run() does the actual work.
  [[nodiscard]] TrainResult train(const hdc::EncodedDataset& train_set,
                                  const TrainOptions& options) const;

 protected:
  /// Strategy implementation. Must invoke options.epoch_observer (when
  /// set) once per epoch with a snapshot-evaluated EpochPoint, and skip
  /// snapshot evaluation entirely when it is not set.
  [[nodiscard]] virtual TrainResult run(
      const hdc::EncodedDataset& train_set,
      const TrainOptions& options) const = 0;
};

/// Model wrapper around hdc::BinaryClassifier.
class BinaryModel final : public Model {
 public:
  explicit BinaryModel(hdc::BinaryClassifier classifier)
      : classifier_(std::move(classifier)) {}

  [[nodiscard]] int predict(const hv::BitVector& query) const override {
    return classifier_.predict(query);
  }
  void predict_queries(const hdc::QueryBatch& queries, std::span<int> out,
                       hdc::PredictStats* stats) const override {
    hdc::BatchScorer(classifier_).predict_queries(queries, out, stats);
  }
  void predict_batch(std::span<const hv::BitVector> queries,
                     std::span<int> out) const override {
    hdc::BatchScorer(classifier_).predict_batch(queries, out);
  }
  [[nodiscard]] double accuracy(
      const hdc::EncodedDataset& dataset) const override {
    return classifier_.accuracy(dataset);
  }
  [[nodiscard]] std::size_t storage_bits() const noexcept override {
    return classifier_.class_count() * classifier_.dim();
  }
  [[nodiscard]] const hdc::BinaryClassifier* as_binary()
      const noexcept override {
    return &classifier_;
  }

 private:
  hdc::BinaryClassifier classifier_;
};

/// Model wrapper around hdc::EnsembleClassifier.
class EnsembleModel final : public Model {
 public:
  explicit EnsembleModel(hdc::EnsembleClassifier classifier)
      : classifier_(std::move(classifier)) {}

  [[nodiscard]] int predict(const hv::BitVector& query) const override {
    return classifier_.predict(query);
  }
  void predict_queries(const hdc::QueryBatch& queries, std::span<int> out,
                       hdc::PredictStats* stats) const override {
    hdc::BatchScorer(classifier_).predict_queries(queries, out, stats);
  }
  void predict_batch(std::span<const hv::BitVector> queries,
                     std::span<int> out) const override {
    hdc::BatchScorer(classifier_).predict_batch(queries, out);
  }
  [[nodiscard]] double accuracy(
      const hdc::EncodedDataset& dataset) const override {
    return classifier_.accuracy(dataset);
  }
  [[nodiscard]] std::size_t storage_bits() const noexcept override {
    return classifier_.storage_bits();
  }

 private:
  hdc::EnsembleClassifier classifier_;
};

/// Model wrapper around hdc::NonBinaryClassifier (stores 32-bit components).
class NonBinaryModel final : public Model {
 public:
  explicit NonBinaryModel(hdc::NonBinaryClassifier classifier)
      : classifier_(std::move(classifier)) {}

  [[nodiscard]] int predict(const hv::BitVector& query) const override {
    return classifier_.predict(query);
  }
  void predict_queries(const hdc::QueryBatch& queries, std::span<int> out,
                       hdc::PredictStats* stats) const override {
    hdc::BatchScorer(classifier_).predict_queries(queries, out, stats);
  }
  void predict_batch(std::span<const hv::BitVector> queries,
                     std::span<int> out) const override {
    hdc::BatchScorer(classifier_).predict_batch(queries, out);
  }
  [[nodiscard]] double accuracy(
      const hdc::EncodedDataset& dataset) const override {
    return classifier_.accuracy(dataset);
  }
  [[nodiscard]] std::size_t storage_bits() const noexcept override {
    std::size_t bits = 0;
    for (std::size_t k = 0; k < classifier_.class_count(); ++k) {
      bits += classifier_.class_vector(k).dim() * 32;
    }
    return bits;
  }

 private:
  hdc::NonBinaryClassifier classifier_;
};

}  // namespace lehdc::train
