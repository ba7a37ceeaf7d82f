// Micro benchmarks (google-benchmark) for the primitive operations every
// experiment rests on: binding (XOR), Hamming similarity (popcount), the
// fused bind + Harley–Seal bundle kernel (per instruction-set tier) vs
// naive majority counters, record encoding, single-query inference, and one
// LeHDC optimizer step. The run context names the tier the library selects
// on this CPU ("kernel_tier").
#include <benchmark/benchmark.h>

#include <vector>

#include "core/lehdc_trainer.hpp"
#include "hdc/batch_scorer.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoded_dataset.hpp"
#include "hdc/encoder.hpp"
#include "hv/bitslice.hpp"
#include "hv/bitvector.hpp"
#include "hv/generate.hpp"
#include "hv/intvector.hpp"
#include "hv/kernels.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace lehdc;

void BM_BindXor(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  hv::BitVector a = hv::BitVector::random(dim, rng);
  const hv::BitVector b = hv::BitVector::random(dim, rng);
  for (auto _ : state) {
    a.bind_inplace(b);
    benchmark::DoNotOptimize(a.words().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(dim));
}
BENCHMARK(BM_BindXor)->Arg(2000)->Arg(10000);

void BM_HammingPopcount(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  const hv::BitVector a = hv::BitVector::random(dim, rng);
  const hv::BitVector b = hv::BitVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hv::BitVector::hamming(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(dim));
}
BENCHMARK(BM_HammingPopcount)->Arg(2000)->Arg(10000);

void BM_BindBundleKernel(benchmark::State& state) {
  // One record encode's worth of bundling (784 position rows bound to rows
  // of a 32-level codebook, majority over the whole dimension) through one
  // tier of the kernel table; arg 1 indexes supported_kernel_tiers(),
  // fastest first.
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto tiers = hv::supported_kernel_tiers();
  const auto tier_index = static_cast<std::size_t>(state.range(1));
  if (tier_index >= tiers.size()) {
    state.SkipWithError("tier not supported on this CPU");
    return;
  }
  const hv::KernelTier& tier = tiers[tier_index];
  const std::size_t count = 784;
  const std::size_t words = (dim + 63) / 64;
  util::Rng rng(1);
  const auto levels = hv::random_set(32, dim, rng);
  const auto positions = hv::random_set(count, dim, rng);
  // Position rows packed back to back, as the record cursor's scratch.
  std::vector<std::uint64_t> pos(count * words);
  std::vector<const std::uint64_t*> rows(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(positions[i].words().begin(), positions[i].words().end(),
              pos.begin() + static_cast<std::ptrdiff_t>(i * words));
    rows[i] = levels[rng.next_below(levels.size())].words().data();
  }
  const hv::BitVector tie_break = hv::BitVector::random(dim, rng);
  hv::BitVector out(dim);
  hv::BindBundleRange range;
  range.pos = pos.data();
  range.pos_stride = words;
  range.rows = rows.data();
  range.n = count;
  range.words = words;
  range.tie_break = tie_break.words().data();
  for (auto _ : state) {
    tier.bind_bundle_majority(range, out.words().data());
    benchmark::DoNotOptimize(out.words().data());
  }
  state.SetLabel(tier.name);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(dim * count));
}
BENCHMARK(BM_BindBundleKernel)->ArgsProduct({{2000, 10000}, {0, 1, 2}});

void BM_BundleNaiveCounters(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const std::size_t count = 784;
  util::Rng rng(1);
  std::vector<hv::BitVector> hvs;
  for (std::size_t i = 0; i < count; ++i) {
    hvs.push_back(hv::BitVector::random(dim, rng));
  }
  const hv::BitVector tie_break = hv::BitVector::random(dim, rng);
  for (auto _ : state) {
    hv::IntVector acc(dim);
    for (const auto& hv : hvs) {
      acc.add(hv);
    }
    benchmark::DoNotOptimize(acc.sign(tie_break));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(dim * count));
}
BENCHMARK(BM_BundleNaiveCounters)->Arg(2000)->Arg(10000);

void BM_RecordEncode(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  hdc::RecordEncoderConfig cfg;
  cfg.dim = dim;
  cfg.feature_count = 784;
  cfg.seed = 1;
  const hdc::RecordEncoder encoder(cfg);
  util::Rng rng(2);
  std::vector<float> sample(cfg.feature_count);
  for (auto& v : sample) {
    v = rng.next_float();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(sample));
  }
}
BENCHMARK(BM_RecordEncode)->Arg(2000)->Arg(10000);

void BM_InferencePerSampleLoop(benchmark::State& state) {
  // The seed inference path: per-query argmin over scalar hamming
  // (classifier.predict now routes through the batched kernels, so the old
  // loop is spelled out). The batch-1024 contrast with BM_InferenceBatch
  // below is the PR 2 speedup.
  const std::size_t dim = 10000;
  const std::size_t classes = 10;
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<hv::BitVector> class_hvs;
  for (std::size_t k = 0; k < classes; ++k) {
    class_hvs.push_back(hv::BitVector::random(dim, rng));
  }
  const hdc::BinaryClassifier classifier(std::move(class_hvs));
  std::vector<hv::BitVector> queries;
  for (std::size_t q = 0; q < batch; ++q) {
    queries.push_back(hv::BitVector::random(dim, rng));
  }
  std::vector<int> out(batch);
  for (auto _ : state) {
    for (std::size_t q = 0; q < batch; ++q) {
      int best = 0;
      std::size_t best_distance =
          hv::BitVector::hamming(queries[q], classifier.class_hypervector(0));
      for (std::size_t k = 1; k < classes; ++k) {
        const std::size_t distance = hv::BitVector::hamming(
            queries[q], classifier.class_hypervector(k));
        if (distance < best_distance) {
          best_distance = distance;
          best = static_cast<int>(k);
        }
      }
      out[q] = best;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
}
BENCHMARK(BM_InferencePerSampleLoop)->Arg(1)->Arg(64)->Arg(1024);

void BM_InferenceBatch(benchmark::State& state) {
  // Batched scoring through BatchScorer on a single-thread pool: the
  // speedup over BM_InferencePerSampleLoop is pure kernel + scratch reuse.
  const std::size_t dim = 10000;
  const std::size_t classes = 10;
  const auto batch = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<hv::BitVector> class_hvs;
  for (std::size_t k = 0; k < classes; ++k) {
    class_hvs.push_back(hv::BitVector::random(dim, rng));
  }
  const hdc::BinaryClassifier classifier(std::move(class_hvs));
  std::vector<hv::BitVector> queries;
  for (std::size_t q = 0; q < batch; ++q) {
    queries.push_back(hv::BitVector::random(dim, rng));
  }
  util::ThreadPool single(1);
  const hdc::BatchScorer scorer(classifier, &single);
  std::vector<int> out(batch);
  for (auto _ : state) {
    scorer.predict_batch(queries, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(batch));
}
BENCHMARK(BM_InferenceBatch)->Arg(1)->Arg(64)->Arg(1024);

void BM_InferenceQuery(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const std::size_t classes = 10;
  util::Rng rng(1);
  std::vector<hv::BitVector> class_hvs;
  for (std::size_t k = 0; k < classes; ++k) {
    class_hvs.push_back(hv::BitVector::random(dim, rng));
  }
  const hdc::BinaryClassifier classifier(std::move(class_hvs));
  const hv::BitVector query = hv::BitVector::random(dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.predict(query));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(dim * classes));
}
BENCHMARK(BM_InferenceQuery)->Arg(2000)->Arg(10000);

void BM_SoftmaxXentBackward(benchmark::State& state) {
  const std::size_t batch = 64;
  const std::size_t classes = 10;
  util::Rng rng(1);
  nn::Matrix logits(batch, classes);
  logits.fill_gaussian(rng, 2.0f);
  nn::Matrix grad(batch, classes);
  std::vector<int> labels(batch);
  for (auto& label : labels) {
    label = static_cast<int>(rng.next_below(classes));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        nn::softmax_xent_backward(logits, labels, grad));
  }
}
BENCHMARK(BM_SoftmaxXentBackward);

void BM_LeHdcEpoch(benchmark::State& state) {
  // One full LeHDC training epoch on a small encoded dataset: the cost unit
  // the Table 2 epoch counts multiply.
  const auto dim = static_cast<std::size_t>(state.range(0));
  const std::size_t samples = 256;
  const std::size_t classes = 10;
  util::Rng rng(1);
  hdc::EncodedDataset dataset(dim, classes);
  for (std::size_t i = 0; i < samples; ++i) {
    dataset.add(hv::BitVector::random(dim, rng),
                static_cast<int>(i % classes));
  }
  core::LeHdcConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 64;
  const core::LeHdcTrainer trainer(cfg);
  train::TrainOptions options;
  options.seed = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(dataset, options));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(samples * dim * classes));
}
BENCHMARK(BM_LeHdcEpoch)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("kernel_tier", lehdc::hv::kernel_tier().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
