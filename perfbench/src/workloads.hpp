// Inputs and shapes shared by the workloads and the traced layer suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "data/synthetic.hpp"

namespace perfbench {

/// Paper defaults used by every fit: D = 10,000, Q = 32, LeHDC with Adam,
/// DR 0.5, WD 0.05, B = 64 (core::LeHdcConfig's defaults).
inline constexpr std::size_t kDim = 10000;

/// MNIST-shaped split (N = 784, K = 10). The task is the synthetic MNIST
/// profile with its own fixed generator seed; the benchmark seed draws
/// which of its samples land in each split, and in what order. Keeping
/// the task fixed keeps accuracy comparable across seeds.
[[nodiscard]] lehdc::data::TrainTestSplit make_mnist(std::uint64_t seed,
                                                     std::size_t train_count,
                                                     std::size_t test_count);

/// PAMAP-shaped split (N = 75, K = 5), drawn the same way.
[[nodiscard]] lehdc::data::TrainTestSplit make_pamap(std::uint64_t seed,
                                                     std::size_t train_count,
                                                     std::size_t test_count);

/// LeHDC pipeline configuration with `epochs` epochs.
[[nodiscard]] lehdc::core::PipelineConfig lehdc_config(std::uint64_t seed,
                                                       std::size_t epochs);

/// The exported class hypervectors of a fitted pipeline (for bit-exact
/// model comparison).
[[nodiscard]] std::vector<lehdc::hv::BitVector> class_vectors(
    const lehdc::core::Pipeline& pipeline);

/// Hex FNV-1a digest of class hypervectors: equal digests across runner
/// processes show the fits of one seed exported the same model.
[[nodiscard]] std::string model_digest(
    const std::vector<lehdc::hv::BitVector>& classes);

/// Fraction of `predicted` equal to `labels`.
[[nodiscard]] double accuracy_of(const std::vector<int>& predicted,
                                 std::span<const int> labels);

/// Train-mnist shape: 3000 train samples (the MNIST profile at scale
/// 0.05), 1000 test samples and a fixed epoch count per fit. LeHDC's test
/// accuracy swings from epoch to epoch early on (0.37-0.99 within one
/// fit); by 15 epochs the plateau decay has damped it, so the final
/// accuracy is a property of the trainer rather than of where the swing
/// happened to stop.
inline constexpr std::size_t kTrainSamples = 3000;
inline constexpr std::size_t kTrainTestSamples = 1000;
inline constexpr std::size_t kTrainEpochs = 15;
/// Timed predict_batch passes over the test split after each fit (the
/// first also feeds the accuracy check).
inline constexpr std::size_t kTrainPredictPasses = 10;

/// Infer-mnist shape: a model fitted in setup on 1000 samples, then
/// batch-1024 raw-sample classification. Setup runs kInferSetups times
/// per runner process (once before the predict passes, the rest after).
inline constexpr std::size_t kInferFitSamples = 2000;
inline constexpr std::size_t kInferFitEpochs = 6;
inline constexpr std::size_t kInferSetups = 3;
inline constexpr std::size_t kInferBatch = 1024;

/// Serve-pamap shape: 480 training samples (the PAMAP profile at scale
/// 0.05) for the served model, plus a 2048-sample query pool.
inline constexpr std::size_t kPamapTrain = 480;
inline constexpr std::size_t kPamapPool = 2048;
inline constexpr std::size_t kPamapEpochs = 10;

}  // namespace perfbench
