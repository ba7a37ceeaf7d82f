// train-mnist and infer-mnist: the two sides of the paper's cost argument,
// LeHDC training (Sec. 4) and raw-sample inference through the unchanged
// HDC encode/score path.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/profiles.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lehdc::core::Pipeline;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

lehdc::data::TrainTestSplit make_split(lehdc::data::BenchmarkId id,
                                       std::uint64_t seed, std::uint64_t salt,
                                       std::size_t train_count,
                                       std::size_t test_count) {
  lehdc::data::SyntheticConfig config = lehdc::data::profile(id).config;
  config.train_count = train_count + test_count;
  config.test_count = 10;  // the generator's own test split is unused
  lehdc::data::Dataset pool = lehdc::data::generate_synthetic(config).train;
  lehdc::util::Rng rng(mix_seed(seed, salt));
  pool.shuffle(rng);
  auto [train, test] = pool.split(train_count);
  return {std::move(train), std::move(test)};
}

}  // namespace

lehdc::data::TrainTestSplit make_mnist(std::uint64_t seed,
                                       std::size_t train_count,
                                       std::size_t test_count) {
  return make_split(lehdc::data::BenchmarkId::kMnist, seed, 0x4d4e, train_count,
                    test_count);
}

lehdc::data::TrainTestSplit make_pamap(std::uint64_t seed,
                                       std::size_t train_count,
                                       std::size_t test_count) {
  return make_split(lehdc::data::BenchmarkId::kPamap, seed, 0x5041,
                    train_count, test_count);
}

lehdc::core::PipelineConfig lehdc_config(std::uint64_t seed,
                                         std::size_t epochs) {
  lehdc::core::PipelineConfig config;
  config.dim = kDim;
  config.seed = seed;
  config.strategy = lehdc::core::Strategy::kLeHdc;
  config.lehdc.epochs = epochs;
  return config;
}

std::vector<lehdc::hv::BitVector> class_vectors(const Pipeline& pipeline) {
  std::vector<lehdc::hv::BitVector> out;
  const lehdc::hdc::BinaryClassifier* binary = pipeline.model().as_binary();
  if (binary == nullptr) {
    return out;
  }
  for (std::size_t k = 0; k < binary->class_count(); ++k) {
    out.push_back(binary->class_hypervector(k));
  }
  return out;
}

std::string model_digest(const std::vector<lehdc::hv::BitVector>& classes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& v : classes) {
    for (const std::uint64_t word : v.words()) {
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

double accuracy_of(const std::vector<int>& predicted,
                   std::span<const int> labels) {
  std::size_t hits = 0;
  for (std::size_t i = 0; i < predicted.size() && i < labels.size(); ++i) {
    hits += predicted[i] == labels[i] ? 1 : 0;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(labels.size());
}

void run_train_mnist(const Options& options, Report& report) {
  // Setup is data generation alone. It is short and single-threaded, so
  // it follows the host's single-thread speed, which drifts over seconds:
  // it is timed several times before and after the fits, and setup_s is
  // the median.
  Samples setup;
  lehdc::data::TrainTestSplit split;
  const auto time_setup = [&](int reps) {
    for (int i = 0; i < reps; ++i) {
      const double t0 = now_s();
      split = make_mnist(options.seed, kTrainSamples, kTrainTestSamples);
      setup.add(now_s() - t0);
    }
  };
  time_setup(4);

  const std::size_t fits = scaled_count(2, options.work_scale(), 1);
  Samples fit_s;
  Samples epoch_ms;
  Samples rate;
  std::vector<double> accuracies;
  std::vector<lehdc::hv::BitVector> first_model;
  PhaseTally& tally = report.phase("fit");
  for (std::size_t f = 0; f < fits; ++f) {
    ++tally.attempted;
    try {
      Pipeline pipeline(lehdc_config(options.seed, kTrainEpochs));
      std::vector<double> epoch_seconds;
      lehdc::core::FitReport fit;
      {
        const OpMarker op("fit", 120.0);
        const double t0 = now_s();
        fit = pipeline.fit(split.train, &split.test,
                           [&](const lehdc::train::EpochEvent& event) {
                             epoch_seconds.push_back(event.epoch_seconds);
                           });
        fit_s.add(now_s() - t0);
      }
      // The first epoch of a fit runs cold (page faults on fresh
      // buffers, 30-60% slower) and is left out.
      for (std::size_t e = 1; e < epoch_seconds.size(); ++e) {
        epoch_ms.add(epoch_seconds[e] * 1e3);
      }
      report.check(fit.epochs_run == kTrainEpochs,
                   "train-mnist: fit ran " + std::to_string(fit.epochs_run) +
                       " epochs");

      // The reported test accuracy must match independent batched
      // prediction passes over the same test split; they also time the
      // fitted model's raw-sample inference.
      std::vector<int> predicted;
      for (std::size_t p = 0; p < kTrainPredictPasses; ++p) {
        const OpMarker op("predict_batch", 60.0);
        const double t0 = now_s();
        std::vector<int> pass = pipeline.predict_batch(split.test);
        rate.add(static_cast<double>(split.test.size()) / (now_s() - t0));
        if (p == 0) {
          predicted = std::move(pass);
        } else {
          report.check(pass == predicted,
                       "train-mnist: predict_batch passes on the test split "
                       "disagree");
        }
      }
      std::vector<int> expected(split.test.labels().begin(),
                                split.test.labels().end());
      if (options.corrupt_check) {
        expected[0] = predicted[0] == expected[0]
                          ? (expected[0] + 1) %
                                static_cast<int>(split.test.class_count())
                          : predicted[0];
      }
      report.check(accuracy_of(predicted, expected) == fit.test_accuracy,
                   "train-mnist: fit test accuracy disagrees with "
                   "predict_batch on the test split");
      accuracies.push_back(fit.test_accuracy);
      const auto model = class_vectors(pipeline);
      if (f == 0) {
        first_model = model;
        report.context("model_digest", model_digest(model));
      } else {
        report.check(model == first_model,
                     "train-mnist: fits of one seed exported different "
                     "models");
        report.check(fit.test_accuracy == accuracies.front(),
                     "train-mnist: accuracy differs across fits of one seed");
      }
    } catch (const std::exception& error) {
      ++tally.failed;
      report.check(false, std::string("train-mnist: fit threw: ") +
                              error.what());
    }
  }

  time_setup(3);

  if (!fit_s.empty()) {
    report.metric("fit_s", fit_s.median(), "s", fit_s.size());
  }
  if (!epoch_ms.empty()) {
    report.metric("epoch_ms", epoch_ms.median(), "ms", epoch_ms.size());
  }
  if (!rate.empty()) {
    report.metric("samples_per_s", rate.median(), "1/s", rate.size());
  }
  report.metric("accuracy", accuracies.empty() ? 0.0 : accuracies.front(),
                "fraction");
  report.metric("setup_s", setup.median(), "s", setup.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

void run_infer_mnist(const Options& options, Report& report) {
  // Setup: data generation plus the fit of the classifying model. One
  // short fit follows the host's drifting speed, so setup runs several
  // times, once before the predict passes and the rest after them, and
  // every setup must export the same model. The setup fits also give
  // this workload's fit_s and epoch_ms (first epoch of each fit left out,
  // as in train-mnist).
  Samples setup;
  Samples fit_s;
  Samples epoch_ms;
  lehdc::data::TrainTestSplit split;
  std::unique_ptr<Pipeline> pipeline;
  std::string digest;
  PhaseTally& setup_tally = report.phase("setup_fit");
  const auto set_up = [&](std::size_t reps) {
    for (std::size_t r = 0; r < reps; ++r) {
      ++setup_tally.attempted;
      const double t0 = now_s();
      auto fresh_split =
          make_mnist(options.seed, kInferFitSamples, kInferBatch);
      auto fresh = std::make_unique<Pipeline>(
          lehdc_config(options.seed, kInferFitEpochs));
      std::vector<double> epoch_seconds;
      {
        const OpMarker op("setup_fit", 120.0);
        const double f0 = now_s();
        (void)fresh->fit(fresh_split.train, nullptr,
                         [&](const lehdc::train::EpochEvent& event) {
                           epoch_seconds.push_back(event.epoch_seconds);
                         });
        fit_s.add(now_s() - f0);
      }
      setup.add(now_s() - t0);
      for (std::size_t e = 1; e < epoch_seconds.size(); ++e) {
        epoch_ms.add(epoch_seconds[e] * 1e3);
      }
      const std::string fresh_digest = model_digest(class_vectors(*fresh));
      if (digest.empty()) {
        pipeline = std::move(fresh);
        split = std::move(fresh_split);
        digest = fresh_digest;
        report.context("model_digest", digest);
      } else if (fresh_digest != digest) {
        ++setup_tally.failed;
        report.check(false, "infer-mnist: setup fits of one seed exported "
                            "different models");
      }
    }
  };
  set_up(1);
  const lehdc::data::Dataset& batch = split.test;

  const std::size_t passes = scaled_count(60, options.work_scale(), 3);
  Samples rate;
  std::vector<int> reference;
  PhaseTally& tally = report.phase("predict_batch");
  for (std::size_t p = 0; p < passes; ++p) {
    ++tally.attempted;
    try {
      std::vector<int> predicted;
      {
        const OpMarker op("predict_batch", 60.0);
        const double t0 = now_s();
        predicted = pipeline->predict_batch(batch);
        rate.add(static_cast<double>(batch.size()) / (now_s() - t0));
      }
      if (p == 0) {
        reference = std::move(predicted);
      } else if (predicted != reference) {
        ++tally.failed;
        report.check(false, "infer-mnist: pass " + std::to_string(p) +
                                " predicted differently from pass 0");
      }
    } catch (const std::exception& error) {
      ++tally.failed;
      report.check(false, std::string("infer-mnist: predict_batch threw: ") +
                              error.what());
    }
  }

  // Batched predictions must equal per-sample predict on a subset.
  if (!reference.empty()) {
    std::vector<int> expected(reference);
    if (options.corrupt_check) {
      expected[0] = (expected[0] + 1) % static_cast<int>(batch.class_count());
    }
    PhaseTally& single = report.phase("predict_single_check");
    for (std::size_t i = 0; i < batch.size(); i += 16) {
      ++single.attempted;
      if (pipeline->predict(batch.sample(i)) != expected[i]) {
        ++single.failed;
        report.check(false, "infer-mnist: predict_batch and predict "
                            "disagree on sample " + std::to_string(i));
      }
    }
  }

  const double accuracy = accuracy_of(reference, batch.labels());

  // The later setups run with the first model and split released, so
  // peak RSS stays that of one setup.
  pipeline.reset();
  split = {};
  set_up(kInferSetups - 1);

  if (!rate.empty()) {
    report.metric("samples_per_s", rate.median(), "1/s", rate.size());
  }
  report.metric("fit_s", fit_s.median(), "s", fit_s.size());
  if (!epoch_ms.empty()) {
    report.metric("epoch_ms", epoch_ms.median(), "ms", epoch_ms.size());
  }
  report.metric("accuracy", accuracy, "fraction");
  report.metric("setup_s", setup.median(), "s", setup.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
