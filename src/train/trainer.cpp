#include "train/trainer.hpp"

#include "util/stopwatch.hpp"

namespace lehdc::train {

EpochObserver record_trajectory() {
  return [](const EpochEvent&) {};
}

void Model::predict_queries(const hdc::QueryBatch& queries,
                            std::span<int> out,
                            hdc::PredictStats* stats) const {
  if (stats != nullptr) {
    *stats = hdc::PredictStats{};
    stats->samples = queries.size();
  }
  if (!queries.raw()) {
    const util::Stopwatch watch;
    predict_batch(queries.encoded(), out);
    if (stats != nullptr) {
      stats->score_seconds = watch.elapsed_seconds();
    }
    return;
  }
  // Custom Model subclasses: encode the whole batch through the shared
  // block encode, then run the model's batch path. Classifier-backed models
  // override this with BatchScorer's blocked path.
  const util::Stopwatch encode_watch;
  const hdc::EncodedDataset encoded =
      hdc::encode_dataset(queries.encoder(), queries.samples());
  if (stats != nullptr) {
    stats->encode_seconds = encode_watch.elapsed_seconds();
  }
  const util::Stopwatch score_watch;
  predict_batch(encoded.hypervectors(), out);
  if (stats != nullptr) {
    stats->score_seconds = score_watch.elapsed_seconds();
  }
}

TrainResult Trainer::train(const hdc::EncodedDataset& train_set,
                           const TrainOptions& options) const {
  if (!options.epoch_observer) {
    return run(train_set, options);
  }
  std::vector<EpochPoint> trajectory;
  const EpochObserver& user = options.epoch_observer;
  TrainOptions inner = options;
  inner.epoch_observer = [&trajectory, &user](const EpochEvent& event) {
    trajectory.push_back(event.point);
    user(event);
  };
  TrainResult result = run(train_set, inner);
  result.trajectory = std::move(trajectory);
  return result;
}

}  // namespace lehdc::train
