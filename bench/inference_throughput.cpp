// Batched-inference throughput baseline (PR 2).
//
// Measures queries/sec for the associative-memory lookup at batch sizes
// 1 / 64 / 1024 (D = 10,000, K = 10 by default) in three modes:
//   per_sample        — the seed path: per-query argmin over scalar
//                       BitVector::hamming (classifier.predict now routes
//                       through the batched kernels, so the seed loop is
//                       reconstructed explicitly to keep the baseline honest)
//   batch_1_thread    — BatchScorer on a single-thread pool (kernel win)
//   batch_all_threads — BatchScorer on the global pool (kernel + threads)
// and writes the machine-readable trajectory point BENCH_inference.json
// (a lehdc.metrics.v1 snapshot) so future PRs can track serving throughput
// against this baseline. Also measures the observability overhead: the
// batch_all_threads/1024 workload re-runs with metrics collection enabled,
// and the slowdown must stay within the ≤2% budget (DESIGN.md §5d).
//
// The encode-path phase (PR 8) measures raw-sample prediction end to end —
// encode + score — on both item-memory paths (materialized streaming vs
// rematerialized regeneration, DESIGN.md §5i), reports samples/sec and
// item-memory bytes/sample for each, and asserts the two paths predict
// bit-identically ("encode parity: ok"; a mismatch exits non-zero, and CI
// greps for the parity line).
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "hdc/batch_scorer.hpp"
#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/query_batch.hpp"
#include "hv/batch_score.hpp"
#include "hv/bitvector.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace lehdc;

struct Measurement {
  std::string mode;
  std::size_t batch = 0;
  double queries_per_second = 0.0;
};

/// Runs fn (which scores `batch` queries) until min_seconds of wall time
/// accumulate and returns the aggregate queries/sec.
template <typename Fn>
double measure_qps(std::size_t batch, double min_seconds, Fn&& fn) {
  // Warm-up pass so lazily created pools/scratch don't bill the first run.
  fn();
  const util::Stopwatch timer;
  std::size_t runs = 0;
  do {
    fn();
    ++runs;
  } while (timer.elapsed_seconds() < min_seconds);
  return static_cast<double>(runs * batch) / timer.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags("inference_throughput",
                         "Batched vs per-sample inference throughput; emits "
                         "BENCH_inference.json.");
  flags.add_int("dim", 10000, "hypervector dimension D");
  flags.add_int("classes", 10, "number of classes K");
  flags.add_int("features", 784, "raw feature count N for the encode phase");
  flags.add_int("threads", 0,
                "global pool workers (0 = LEHDC_THREADS, then hardware)");
  flags.add_int("seed", 1, "rng seed");
  flags.add_double("min-seconds", 0.3, "minimum wall time per measurement");
  flags.add_string("out", "BENCH_inference.json", "JSON output path");
  flags.parse(argc, argv);

  if (const auto threads = flags.get_int("threads"); threads > 0) {
    util::ThreadPool::configure_global(static_cast<std::size_t>(threads));
  }
  const auto dim = static_cast<std::size_t>(flags.get_int("dim"));
  const auto classes = static_cast<std::size_t>(flags.get_int("classes"));
  const double min_seconds = flags.get_double("min-seconds");

  util::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
  std::vector<hv::BitVector> class_hvs;
  for (std::size_t k = 0; k < classes; ++k) {
    class_hvs.push_back(hv::BitVector::random(dim, rng));
  }
  const hdc::BinaryClassifier classifier(std::move(class_hvs));

  // The seed per-sample predict: scan classes with the scalar word-wise
  // popcount distance, keep the argmin (ties to the lowest class id).
  const auto seed_predict = [&](const hv::BitVector& query) {
    int best = 0;
    std::size_t best_distance =
        hv::BitVector::hamming(query, classifier.class_hypervector(0));
    for (std::size_t k = 1; k < classifier.class_count(); ++k) {
      const std::size_t distance =
          hv::BitVector::hamming(query, classifier.class_hypervector(k));
      if (distance < best_distance) {
        best_distance = distance;
        best = static_cast<int>(k);
      }
    }
    return best;
  };

  const std::vector<std::size_t> batches = {1, 64, 1024};
  std::vector<hv::BitVector> queries;
  for (std::size_t q = 0; q < batches.back(); ++q) {
    queries.push_back(hv::BitVector::random(dim, rng));
  }

  util::ThreadPool single(1);
  const hdc::BatchScorer scorer_1t(classifier, &single);
  const hdc::BatchScorer scorer_nt(classifier);
  std::vector<int> out(batches.back());

  std::vector<Measurement> results;
  for (const std::size_t batch : batches) {
    const auto query_span =
        std::span<const hv::BitVector>(queries).first(batch);
    const auto out_span = std::span<int>(out).first(batch);
    results.push_back(
        {"per_sample", batch, measure_qps(batch, min_seconds, [&] {
           for (std::size_t q = 0; q < batch; ++q) {
             out[q] = seed_predict(queries[q]);
           }
         })});
    results.push_back(
        {"batch_1_thread", batch, measure_qps(batch, min_seconds, [&] {
           scorer_1t.predict_batch(query_span, out_span);
         })});
    results.push_back(
        {"batch_all_threads", batch, measure_qps(batch, min_seconds, [&] {
           scorer_nt.predict_batch(query_span, out_span);
         })});
  }

  double per_sample_1024 = 0.0;
  double batch_1t_1024 = 0.0;
  util::TextTable table({"Mode", "Batch", "Queries/sec"});
  for (const auto& m : results) {
    char qps[32];
    std::snprintf(qps, sizeof qps, "%.0f", m.queries_per_second);
    table.add_row({m.mode, std::to_string(m.batch), qps});
    if (m.batch == 1024 && m.mode == "per_sample") {
      per_sample_1024 = m.queries_per_second;
    }
    if (m.batch == 1024 && m.mode == "batch_1_thread") {
      batch_1t_1024 = m.queries_per_second;
    }
  }
  table.print(std::cout);
  const double speedup =
      per_sample_1024 > 0.0 ? batch_1t_1024 / per_sample_1024 : 0.0;
  std::printf("\nkernel: %s\n", hv::score_kernel_name());
  std::printf("single-thread batch-1024 speedup vs per-sample: %.2fx\n",
              speedup);

  // Observability overhead: the same multi-threaded batch-1024 workload,
  // metrics off then on, back to back. The on-path pays one relaxed load
  // per record site plus a couple of clock reads per scored chunk; the
  // budget is ≤2% (DESIGN.md §5d).
  const auto full_span = std::span<const hv::BitVector>(queries);
  const auto full_out = std::span<int>(out);
  const auto overhead_workload = [&] {
    scorer_nt.predict_batch(full_span, full_out);
  };
  const double qps_metrics_off =
      measure_qps(batches.back(), min_seconds, overhead_workload);
  obs::set_enabled(true);
  const double qps_metrics_on =
      measure_qps(batches.back(), min_seconds, overhead_workload);
  const double overhead_percent =
      qps_metrics_off > 0.0
          ? (1.0 - qps_metrics_on / qps_metrics_off) * 100.0
          : 0.0;
  std::printf("metrics-enabled overhead at batch 1024: %.2f%% "
              "(%.0f -> %.0f qps)\n",
              overhead_percent, qps_metrics_off, qps_metrics_on);

  // Encode-path phase: raw samples through the unified predict_queries
  // surface, once per item-memory path. Same samples, same classifier —
  // only the item-memory traffic differs, so the predictions must match
  // bit for bit (the parity gate CI enforces).
  const auto features = static_cast<std::size_t>(flags.get_int("features"));
  hdc::RecordEncoderConfig encoder_config;
  encoder_config.dim = dim;
  encoder_config.feature_count = features;
  encoder_config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const hdc::RecordEncoder encoder(encoder_config);
  data::Dataset raw(features, classes);
  {
    std::vector<float> row(features);
    for (std::size_t i = 0; i < batches.back(); ++i) {
      for (float& v : row) {
        v = rng.next_float();
      }
      raw.add_sample(row, static_cast<int>(i % classes));
    }
  }
  struct EncodePathResult {
    const char* mode;
    hdc::EncodePath path;
    double samples_per_second = 0.0;
    double bytes_per_sample = 0.0;
    std::vector<int> predictions;
  };
  EncodePathResult encode_results[] = {
      {"materialized", hdc::EncodePath::kMaterialized, 0.0, 0.0, {}},
      {"rematerialized", hdc::EncodePath::kRematerialized, 0.0, 0.0, {}},
  };
  for (auto& r : encode_results) {
    const hdc::QueryBatch batch(raw, encoder, r.path);
    r.predictions.assign(raw.size(), -1);
    hdc::PredictStats stats;
    scorer_nt.predict_queries(batch, r.predictions, &stats);
    r.bytes_per_sample = static_cast<double>(stats.encode_bytes) /
                         static_cast<double>(stats.samples);
    r.samples_per_second = measure_qps(raw.size(), min_seconds, [&] {
      scorer_nt.predict_queries(batch, r.predictions);
    });
  }
  util::TextTable encode_table({"Encode path", "Samples/sec", "Bytes/sample"});
  for (const auto& r : encode_results) {
    char sps[32];
    char bps[32];
    std::snprintf(sps, sizeof sps, "%.0f", r.samples_per_second);
    std::snprintf(bps, sizeof bps, "%.0f", r.bytes_per_sample);
    encode_table.add_row({r.mode, sps, bps});
  }
  std::printf("\n");
  encode_table.print(std::cout);
  if (encode_results[0].predictions != encode_results[1].predictions) {
    std::fprintf(stderr,
                 "encode parity: MISMATCH (materialized and rematerialized "
                 "paths disagree)\n");
    return 1;
  }
  std::printf("encode parity: ok\n");

  // Re-emit every number through the registry so the snapshot is the one
  // schema CI validates (collection is already enabled at this point).
  auto& registry = obs::Registry::global();
  for (const auto& r : encode_results) {
    registry
        .gauge(std::string("bench.inference.encode.") + r.mode +
               "_samples_per_sec")
        .set(r.samples_per_second);
    registry
        .gauge(std::string("bench.inference.encode.") + r.mode +
               "_bytes_per_sample")
        .set(r.bytes_per_sample);
  }
  for (const auto& m : results) {
    registry
        .gauge("bench.inference." + m.mode + ".b" + std::to_string(m.batch) +
               "_qps")
        .set(m.queries_per_second);
  }
  registry.gauge("bench.inference.speedup_b1024_single_thread").set(speedup);
  registry.gauge("bench.inference.metrics_overhead_percent")
      .set(overhead_percent);
  registry.gauge("bench.inference.metrics_off_b1024_qps")
      .set(qps_metrics_off);
  registry.gauge("bench.inference.metrics_on_b1024_qps").set(qps_metrics_on);

  obs::Json context = obs::Json::object();
  context.set("bench", "inference_throughput");
  context.set("dim", dim);
  context.set("classes", classes);
  context.set("kernel", hv::score_kernel_name());
  context.set("pool_workers", util::ThreadPool::global().worker_count());

  const std::string& out_path = flags.get_string("out");
  obs::write_metrics_json(out_path, registry, std::move(context));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
