// End-to-end tests for the Pipeline API and the strategy registry.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/pipeline_io.hpp"
#include "data/synthetic.hpp"
#include "util/fileio.hpp"
#include "util/serial.hpp"

namespace lehdc::core {
namespace {

data::TrainTestSplit easy_split() {
  data::SyntheticConfig cfg;
  cfg.feature_count = 24;
  cfg.class_count = 3;
  cfg.train_count = 120;
  cfg.test_count = 45;
  cfg.prototypes_per_class = 1;
  cfg.class_separation = 1.5;
  cfg.noise_stddev = 0.15;
  cfg.seed = 7;
  return generate_synthetic(cfg);
}

PipelineConfig fast_pipeline(Strategy strategy) {
  PipelineConfig cfg;
  cfg.dim = 512;
  cfg.seed = 3;
  cfg.strategy = strategy;
  cfg.lehdc.epochs = 10;
  cfg.lehdc.batch_size = 16;
  cfg.retrain.iterations = 10;
  cfg.multimodel.models_per_class = 2;
  cfg.multimodel.epochs = 5;
  cfg.adapt.iterations = 10;
  return cfg;
}

TEST(StrategyNames, RoundTripThroughRegistry) {
  for (const auto strategy :
       {Strategy::kBaseline, Strategy::kMultiModel, Strategy::kRetraining,
        Strategy::kEnhancedRetraining, Strategy::kAdaptHd,
        Strategy::kNonBinary, Strategy::kLeHdc}) {
    EXPECT_EQ(strategy_from_name(strategy_name(strategy)), strategy);
  }
}

TEST(StrategyNames, AcceptsAliases) {
  EXPECT_EQ(strategy_from_name("lehdc"), Strategy::kLeHdc);
  EXPECT_EQ(strategy_from_name("multi-model"), Strategy::kMultiModel);
  EXPECT_EQ(strategy_from_name("Multi_Model"), Strategy::kMultiModel);
  EXPECT_EQ(strategy_from_name("retrain"), Strategy::kRetraining);
  EXPECT_THROW((void)strategy_from_name("dnn"), std::invalid_argument);
}

TEST(MakeTrainer, ProducesNamedStrategies) {
  for (const auto strategy :
       {Strategy::kBaseline, Strategy::kMultiModel, Strategy::kRetraining,
        Strategy::kEnhancedRetraining, Strategy::kAdaptHd,
        Strategy::kNonBinary, Strategy::kLeHdc}) {
    const auto trainer = make_trainer(fast_pipeline(strategy));
    ASSERT_NE(trainer, nullptr);
    EXPECT_EQ(trainer->name(), strategy_name(strategy));
  }
}

TEST(Pipeline, FitPredictEvaluate) {
  const auto split = easy_split();
  Pipeline pipeline(fast_pipeline(Strategy::kLeHdc));
  EXPECT_FALSE(pipeline.fitted());
  const FitReport report = pipeline.fit(split.train, &split.test);
  EXPECT_TRUE(pipeline.fitted());
  EXPECT_GT(report.train_accuracy, 0.9);
  EXPECT_GT(report.test_accuracy, 0.9);
  EXPECT_GT(report.timings.encode_seconds, 0.0);
  EXPECT_GT(report.epochs_run, 0u);

  // predict() agrees with evaluate() on the same data.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < split.test.size(); ++i) {
    if (pipeline.predict(split.test.sample(i)) == split.test.label(i)) {
      ++correct;
    }
  }
  const double manual =
      static_cast<double>(correct) / static_cast<double>(split.test.size());
  const EvalResult eval = pipeline.evaluate(split.test);
  EXPECT_NEAR(eval.accuracy, manual, 1e-12);
  EXPECT_EQ(eval.samples, split.test.size());
  ASSERT_NE(eval.confusion, nullptr);
  EXPECT_NEAR(eval.confusion->accuracy(), manual, 1e-12);
  EXPECT_NEAR(manual, report.test_accuracy, 1e-12);
}

TEST(Pipeline, EveryStrategyFitsEndToEnd) {
  const auto split = easy_split();
  for (const auto strategy :
       {Strategy::kBaseline, Strategy::kMultiModel, Strategy::kRetraining,
        Strategy::kEnhancedRetraining, Strategy::kAdaptHd,
        Strategy::kNonBinary, Strategy::kLeHdc}) {
    Pipeline pipeline(fast_pipeline(strategy));
    const FitReport report = pipeline.fit(split.train, &split.test);
    EXPECT_GT(report.test_accuracy, 0.8)
        << "strategy " << strategy_name(strategy);
  }
}

TEST(Pipeline, TrajectoryRecordingFlowsThrough) {
  const auto split = easy_split();
  auto cfg = fast_pipeline(Strategy::kLeHdc);
  cfg.lehdc.epochs = 5;
  Pipeline pipeline(cfg);
  const FitReport report =
      pipeline.fit(split.train, &split.test, train::record_trajectory());
  EXPECT_EQ(report.trajectory.size(), 5u);
  EXPECT_GT(report.trajectory.back().test_accuracy, 0.0);
}

TEST(Pipeline, FitWithoutTestSet) {
  const auto split = easy_split();
  Pipeline pipeline(fast_pipeline(Strategy::kBaseline));
  const FitReport report = pipeline.fit(split.train);
  EXPECT_GT(report.train_accuracy, 0.9);
  EXPECT_EQ(report.test_accuracy, 0.0);
}

TEST(Pipeline, PredictBeforeFitThrows) {
  Pipeline pipeline(fast_pipeline(Strategy::kBaseline));
  const std::vector<float> sample(24, 0.5f);
  EXPECT_THROW((void)pipeline.predict(sample), std::invalid_argument);
  EXPECT_THROW((void)pipeline.model(), std::invalid_argument);
  EXPECT_THROW((void)pipeline.encoder(), std::invalid_argument);
}

TEST(Pipeline, RejectsSchemaMismatch) {
  const auto split = easy_split();
  Pipeline pipeline(fast_pipeline(Strategy::kBaseline));
  const data::Dataset wrong(25, 3);
  EXPECT_THROW((void)pipeline.fit(split.train, &wrong),
               std::invalid_argument);
}

TEST(Pipeline, RejectsEmptyTrainingSet) {
  Pipeline pipeline(fast_pipeline(Strategy::kBaseline));
  const data::Dataset empty(24, 3);
  EXPECT_THROW((void)pipeline.fit(empty), std::invalid_argument);
}

TEST(Pipeline, ValidatesConfig) {
  auto cfg = fast_pipeline(Strategy::kBaseline);
  cfg.dim = 0;
  EXPECT_THROW(Pipeline{cfg}, std::invalid_argument);
  cfg = fast_pipeline(Strategy::kBaseline);
  cfg.levels = 1;
  EXPECT_THROW(Pipeline{cfg}, std::invalid_argument);
}

TEST(Pipeline, EncoderDimsMatchConfig) {
  const auto split = easy_split();
  Pipeline pipeline(fast_pipeline(Strategy::kBaseline));
  (void)pipeline.fit(split.train);
  EXPECT_EQ(pipeline.encoder().dim(), 512u);
  EXPECT_EQ(pipeline.encoder().feature_count(), 24u);
}

TEST(Pipeline, LeHdcSharesEncoderWithBaseline) {
  // Same seed → identical item memories → LeHDC's accuracy gain comes from
  // training alone (the paper's apples-to-apples protocol).
  const auto split = easy_split();
  Pipeline baseline(fast_pipeline(Strategy::kBaseline));
  Pipeline lehdc(fast_pipeline(Strategy::kLeHdc));
  (void)baseline.fit(split.train);
  (void)lehdc.fit(split.train);
  const std::vector<float> sample(split.train.sample(0).begin(),
                                  split.train.sample(0).end());
  EXPECT_EQ(
      dynamic_cast<const hdc::RecordEncoder&>(baseline.encoder())
          .encode(sample),
      dynamic_cast<const hdc::RecordEncoder&>(lehdc.encoder())
          .encode(sample));
}

// ------------------------------------------------- bundle header checks --

/// Every field of a hand-framed LHDP bundle. The defaults load; each test
/// breaks one field, so the field (not the harness) causes the rejection.
struct BundleFields {
  std::uint32_t bundle_version = 2;
  std::uint64_t dim = 128;
  std::uint64_t encoder_dim = 128;
  std::uint64_t feature_count = 4;
  std::uint64_t levels = 8;
  float range_lo = 0.0f;
  float range_hi = 1.0f;
  std::uint32_t classifier_version = 2;
  std::uint64_t classifier_dim = 128;
};

/// `magic` | u32 version | framed payload: the checksummed container
/// layout, with a CRC that matches whatever the payload declares.
std::string framed(const char* magic, std::uint32_t version,
                   const std::string& payload) {
  std::ostringstream out(std::ios::binary);
  out.write(magic, 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  util::write_framed_payload(out, payload);
  return out.str();
}

std::string write_bundle(const BundleFields& f, const std::string& name) {
  util::PayloadWriter classifier;
  classifier.pod<std::uint64_t>(f.classifier_dim);
  classifier.pod<std::uint64_t>(2);  // class_count
  const std::string words(2 * ((f.classifier_dim + 63) / 64) * 8, '\x5a');
  classifier.bytes(words.data(), words.size());
  const std::string blob =
      framed("LHDC", f.classifier_version, classifier.str());

  util::PayloadWriter payload;
  payload.pod<std::uint64_t>(f.dim);
  payload.pod<std::uint64_t>(f.levels);
  payload.pod<std::uint64_t>(3);  // seed
  payload.pod<std::uint32_t>(static_cast<std::uint32_t>(Strategy::kBaseline));
  payload.pod<std::uint64_t>(f.encoder_dim);
  payload.pod<std::uint64_t>(f.feature_count);
  payload.pod<std::uint64_t>(f.levels);
  payload.pod<float>(f.range_lo);
  payload.pod<float>(f.range_hi);
  payload.pod<std::uint64_t>(3);  // encoder seed
  payload.bytes(blob.data(), blob.size());

  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const std::string file = framed("LHDP", f.bundle_version, payload.str());
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  return path;
}

/// The load must fail as a std::runtime_error naming the file — never as
/// the std::invalid_argument the encoder constructors raise, and never by
/// first allocating what the header declares.
void expect_rejected(const BundleFields& fields, const std::string& name) {
  const std::string path = write_bundle(fields, name);
  try {
    (void)load_pipeline(path);
    ADD_FAILURE() << name << " loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(PipelineBundle, HandFramedDefaultsLoad) {
  const std::string path = write_bundle(BundleFields{}, "defaults.lhdp");
  const Pipeline pipeline = load_pipeline(path);
  EXPECT_EQ(pipeline.encoder().dim(), 128u);
  EXPECT_EQ(pipeline.encoder().feature_count(), 4u);
  std::remove(path.c_str());
}

TEST(PipelineBundle, V1BundleIsRejected) {
  BundleFields fields;
  fields.bundle_version = 1;
  expect_rejected(fields, "v1.lhdp");
}

TEST(PipelineBundle, V1ClassifierBlobInsideV2BundleIsRejected) {
  BundleFields fields;
  fields.classifier_version = 1;
  expect_rejected(fields, "v1_blob.lhdp");
}

TEST(PipelineBundle, RejectsZeroFeatures) {
  BundleFields fields;
  fields.feature_count = 0;
  expect_rejected(fields, "zero_features.lhdp");
}

TEST(PipelineBundle, RejectsSingleLevel) {
  BundleFields fields;
  fields.levels = 1;
  expect_rejected(fields, "one_level.lhdp");
}

TEST(PipelineBundle, RejectsMoreLevelsThanDimensions) {
  BundleFields fields;
  fields.levels = fields.dim + 1;
  expect_rejected(fields, "levels_over_dim.lhdp");
}

TEST(PipelineBundle, RejectsEmptyOrNonFiniteValueRange) {
  BundleFields fields;
  fields.range_lo = 1.0f;
  fields.range_hi = 1.0f;
  expect_rejected(fields, "empty_range.lhdp");
  fields.range_lo = 0.0f;
  fields.range_hi = std::numeric_limits<float>::quiet_NaN();
  expect_rejected(fields, "nan_range.lhdp");
}

TEST(PipelineBundle, RejectsEncoderDimensionMismatch) {
  BundleFields fields;
  fields.encoder_dim = 256;
  expect_rejected(fields, "encoder_dim.lhdp");
}

TEST(PipelineBundle, RejectsClassifierDimensionMismatch) {
  BundleFields fields;
  fields.classifier_dim = 64;
  expect_rejected(fields, "classifier_dim.lhdp");
}

TEST(PipelineBundle, RejectsOversizedItemMemories) {
  // 2^30 features x 2 words: 16 GiB of position rows.
  BundleFields fields;
  fields.feature_count = std::uint64_t{1} << 30;
  expect_rejected(fields, "huge_features.lhdp");
  // A 2^40-bit dimension, declared consistently everywhere but the
  // classifier blob, which the check must never get to.
  fields = BundleFields{};
  fields.dim = fields.encoder_dim = std::uint64_t{1} << 40;
  expect_rejected(fields, "huge_dim.lhdp");
}

}  // namespace
}  // namespace lehdc::core
