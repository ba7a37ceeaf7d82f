// The traced run: times the calls into each layer (src/ module) from the
// benchmark's own code, so a change aimed at one layer can point at the
// layer number it moved. Every traced run reports every layer metric. The
// train part always runs at the train-mnist shape (the epoch reconcile
// needs several epochs); the infer part runs at full length on
// infer-mnist and at a quarter of it otherwise. The serve session (loopback
// TCP into the in-process server, at half length) runs in every traced
// run: its latencies swing 25-40% between runs on a shared VM, too much to
// gate as an end-to-end workload, so they are reported here instead. Spans
// are recorded in memory (obs::TraceSpan, category "perfbench") and
// written as a Chrome trace when the run ends.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <tuple>

#include "common.hpp"
#include "hdc/block_encoder.hpp"
#include "hv/batch_score.hpp"
#include "hv/bitslice.hpp"
#include "hv/generate.hpp"
#include "nn/binarize.hpp"
#include "nn/dropout.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "serve/framing.hpp"
#include "serve/protocol.hpp"
#include "serve_session.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using lehdc::core::Pipeline;
namespace hv = lehdc::hv;
namespace nn = lehdc::nn;

/// The traced layer numbers reconcile with the op they decompose when
/// ratio = layer sum / op time falls in [1 - kReconcileTolerance,
/// 1 + kReconcileTolerance].
constexpr double kReconcileTolerance = 0.25;

void set_tracing(bool on) {
  lehdc::obs::set_enabled(on);
  lehdc::obs::set_trace_enabled(on);
}

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
Samples time_reps(std::size_t reps, Fn&& fn) {
  Samples out;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    out.add(now_s() - t0);
  }
  return out;
}

void probe_pool_and_hv(const Options& options, Report& report) {
  const OpMarker op("probe_hv", 60.0);
  const lehdc::obs::TraceSpan span("perfbench.probe.hv", "perfbench");
  // Empty-body parallel_for over 4 chunks: pure dispatch cost.
  const Samples pf = time_reps(20, [] {
    for (int i = 0; i < 100; ++i) {
      lehdc::util::parallel_for(0, 4, [](std::size_t, std::size_t) {});
    }
  });
  report.metric("util.parallel_for_us", pf.median() / 100.0 * 1e6, "us",
                pf.size() * 100);

  lehdc::util::Rng rng(options.seed);
  const auto inputs = hv::random_set(784, kDim, rng);
  hv::BitVector tie(kDim);
  tie.randomize(rng);
  hv::BitSliceAccumulator acc(kDim);
  hv::BitVector bundled;
  const Samples bundle = time_reps(41, [&] {
    acc.reset();
    for (const auto& v : inputs) {
      acc.add(v);
    }
    bundled = acc.majority(tie);
  });
  report.metric("hv.bundle_us", bundle.median() * 1e6, "us", bundle.size());

  const auto queries = hv::random_set(kInferBatch, kDim, rng);
  const auto classes = hv::random_set(10, kDim, rng);
  std::vector<std::int64_t> scores(queries.size() * classes.size());
  const Samples score = time_reps(
      201, [&] { hv::dot_scores_batch(queries, classes, scores); });
  report.metric("hv.score_qps",
                static_cast<double>(queries.size()) / score.median(), "1/s",
                score.size());
}

/// One trainer mini-batch at B = 64, D = 10k, K = 10, replayed through
/// the same nn calls LeHdcTrainer makes. Returns the per-batch sum in ms.
double replay_nn(const Options& options, Report& report) {
  const OpMarker op("probe_nn", 60.0);
  const lehdc::obs::TraceSpan span("perfbench.probe.nn", "perfbench");
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kClasses = 10;
  lehdc::util::Rng rng(options.seed ^ 0x6e6eULL);
  nn::Matrix signs(kBatch, kDim);
  for (float& v : signs.data()) {
    v = (rng.next() & 1U) != 0 ? 1.0f : -1.0f;
  }
  nn::Matrix x(kBatch, kDim);
  nn::Matrix latent(kClasses, kDim);
  latent.fill_gaussian(rng, 0.1f);
  nn::Matrix weights(kClasses, kDim);
  nn::Matrix logits(kBatch, kClasses);
  nn::Matrix logit_grad(kBatch, kClasses);
  nn::Matrix weight_grad(kClasses, kDim);
  std::vector<int> labels(kBatch);
  for (std::size_t b = 0; b < kBatch; ++b) {
    labels[b] = static_cast<int>(b % kClasses);
  }
  nn::AdamConfig adam_config;
  adam_config.learning_rate = 0.01f;
  adam_config.weight_decay = 0.05f;
  nn::AdamOptimizer adam(kClasses, kDim, adam_config);
  nn::Dropout dropout(0.5f);

  Samples dropout_ms;
  Samples forward_ms;
  Samples backward_ms;
  Samples optimizer_ms;
  for (int it = 0; it < 100; ++it) {
    double t0 = now_s();
    std::copy(signs.data().begin(), signs.data().end(), x.data().begin());
    dropout.apply(x, rng);
    double t1 = now_s();
    dropout_ms.add((t1 - t0) * 1e3);
    nn::binarize_to_float(latent, weights);
    nn::matmul_abt(x, weights, logits);
    t0 = now_s();
    forward_ms.add((t0 - t1) * 1e3);
    (void)nn::softmax_xent_backward(logits, labels, logit_grad);
    weight_grad.fill(0.0f);
    nn::accumulate_gta(logit_grad, x, weight_grad);
    t1 = now_s();
    backward_ms.add((t1 - t0) * 1e3);
    adam.step(latent, weight_grad);
    nn::clip_latent(latent, 1.0f);
    optimizer_ms.add((now_s() - t1) * 1e3);
  }
  report.metric("nn.dropout_ms", dropout_ms.median(), "ms", dropout_ms.size());
  report.metric("nn.forward_ms", forward_ms.median(), "ms", forward_ms.size());
  report.metric("nn.backward_ms", backward_ms.median(), "ms",
                backward_ms.size());
  report.metric("nn.optimizer_ms", optimizer_ms.median(), "ms",
                optimizer_ms.size());
  return dropout_ms.median() + forward_ms.median() + backward_ms.median() +
         optimizer_ms.median();
}

/// Train layers: encode_dataset, FitReport stage timings, epoch time
/// against the nn replay. Returns the fitted MNIST pipeline for the infer
/// part.
std::unique_ptr<Pipeline> train_part(const Options& options, Report& report,
                                     const lehdc::data::TrainTestSplit& split,
                                     std::size_t epochs, double batch_nn_ms) {
  PhaseTally& tally = report.phase("trace_fit");
  const auto fit_once = [&](Samples& epoch_ms) {
    auto pipeline =
        std::make_unique<Pipeline>(lehdc_config(options.seed, epochs));
    ++tally.attempted;
    const OpMarker op("trace_fit", 120.0);
    const lehdc::obs::TraceSpan span("perfbench.fit", "perfbench");
    const double t0 = now_s();
    const auto fit = pipeline->fit(
        split.train, &split.test, [&](const lehdc::train::EpochEvent& event) {
          if (event.point.epoch > 0) {
            epoch_ms.add(event.epoch_seconds * 1e3);
          }
        });
    const double elapsed = now_s() - t0;
    return std::make_tuple(std::move(pipeline), fit, elapsed);
  };

  double untraced_fit_s = 0.0;
  if (options.workload == "train-mnist") {
    set_tracing(false);
    Samples ignored;
    untraced_fit_s = std::get<2>(fit_once(ignored));
    set_tracing(true);
  }
  Samples epoch_ms;
  auto [pipeline, fit, fit_s] = fit_once(epoch_ms);
  if (options.workload == "train-mnist") {
    report.metric("trace.overhead_ratio", fit_s / untraced_fit_s, "ratio", 1);
  }
  report.metric("core.fit_encode_s", fit.timings.encode_seconds, "s", 1);
  report.metric("core.fit_train_s", fit.timings.train_seconds, "s", 1);
  report.metric("core.fit_eval_s", fit.timings.eval_seconds, "s", 1);

  const double batches =
      static_cast<double>(split.train.size() / 64);  // full batches only
  const double epoch = epoch_ms.median();
  report.metric("core.epoch_residual_ms", epoch - batches * batch_nn_ms, "ms",
                epoch_ms.size());
  const double ratio = batches * batch_nn_ms / epoch;
  report.metric("train.reconcile_ratio", ratio, "ratio", epoch_ms.size());
  if (std::abs(ratio - 1.0) > kReconcileTolerance) {
    std::cerr << "perfbench: train.reconcile_ratio " << ratio
              << " is outside 1 +- " << kReconcileTolerance << "\n";
  }

  {
    const OpMarker op("encode_dataset", 60.0);
    const lehdc::obs::TraceSpan span("perfbench.encode_dataset", "perfbench");
    const double t0 = now_s();
    const auto encoded = lehdc::hdc::encode_dataset(pipeline->encoder(),
                                                    split.train);
    report.metric("hdc.encode_samples_per_s",
                  static_cast<double>(encoded.size()) / (now_s() - t0), "1/s",
                  1);
  }
  return std::move(pipeline);
}

/// Infer layers: block encode and score of 64-sample blocks, encode bytes,
/// single-sample predict, and the batch op they decompose.
void infer_part(const Options& options, Report& report,
                const Pipeline& pipeline, const lehdc::data::Dataset& batch,
                std::size_t passes) {
  PhaseTally& tally = report.phase("trace_infer");
  std::vector<int> reference;
  const auto run_passes = [&] {
    Samples op_s;
    for (std::size_t p = 0; p < passes; ++p) {
      ++tally.attempted;
      const OpMarker op("trace_predict_batch", 60.0);
      const lehdc::obs::TraceSpan span("perfbench.predict_batch", "perfbench");
      const double t0 = now_s();
      std::vector<int> predicted = pipeline.predict_batch(batch);
      op_s.add(now_s() - t0);
      if (reference.empty()) {
        reference = std::move(predicted);
      } else if (predicted != reference) {
        ++tally.failed;
        report.check(false, "trace: predict_batch passes disagree");
      }
    }
    return op_s;
  };
  if (options.workload == "infer-mnist") {
    set_tracing(false);
    const Samples untraced = run_passes();
    set_tracing(true);
    const Samples traced = run_passes();
    report.metric("trace.overhead_ratio", traced.median() / untraced.median(),
                  "ratio", traced.size());
  }
  const Samples op_s = run_passes();

  // Block encode + score, 64 samples at a time, spread over the global
  // pool as predict_batch spreads its blocks, and checked against the
  // batched labels. Each worker times its own blocks.
  const auto& block_encoder =
      dynamic_cast<const lehdc::hdc::BlockEncoder&>(pipeline.encoder());
  const std::size_t words = block_encoder.word_count();
  const std::size_t range =
      lehdc::hdc::block_range_words(batch.feature_count(), words);
  const auto classes = class_vectors(pipeline);
  constexpr std::size_t kBlock = 64;
  const std::size_t block_count = batch.size() / kBlock;
  std::vector<double> block_encode_ms(block_count);
  std::vector<double> block_score_ms(block_count);
  std::vector<int> block_labels(block_count * kBlock, -1);
  // Busy time of each pool chunk: the slowest chunk sets the op's time.
  std::vector<double> chunk_ms(block_count, 0.0);
  {
    const OpMarker op("block_probe", 60.0);
    const lehdc::obs::TraceSpan span("perfbench.block_probe", "perfbench");
    lehdc::util::parallel_for(0, block_count, [&](std::size_t lo,
                                                  std::size_t hi) {
      const auto cursor = block_encoder.make_cursor();
      std::vector<hv::BitVector> encoded(kBlock, hv::BitVector(kDim));
      std::vector<std::uint64_t> scratch(kBlock * range);
      std::vector<std::int64_t> scores(kBlock * classes.size());
      for (std::size_t b = lo; b < hi; ++b) {
        const double t0 = now_s();
        cursor->begin(batch.rows(b * kBlock, kBlock), kBlock);
        std::size_t offset = 0;
        for (;;) {
          const std::size_t produced = cursor->encode_words(range, scratch);
          if (produced == 0) {
            break;
          }
          for (std::size_t s = 0; s < kBlock; ++s) {
            std::copy_n(
                scratch.begin() + static_cast<std::ptrdiff_t>(s * produced),
                produced,
                encoded[s].words().begin() +
                    static_cast<std::ptrdiff_t>(offset));
          }
          offset += produced;
        }
        const double t1 = now_s();
        hv::dot_scores_batch(encoded, classes, scores);
        for (std::size_t s = 0; s < kBlock; ++s) {
          const auto* row = scores.data() + s * classes.size();
          block_labels[b * kBlock + s] = static_cast<int>(
              std::max_element(row, row + classes.size()) - row);
        }
        block_encode_ms[b] = (t1 - t0) * 1e3;
        block_score_ms[b] = (now_s() - t1) * 1e3;
        chunk_ms[lo] += block_encode_ms[b] + block_score_ms[b];
      }
    });
  }
  Samples encode_ms;
  Samples score_ms;
  std::size_t mismatches = 0;
  for (std::size_t b = 0; b < block_count; ++b) {
    encode_ms.add(block_encode_ms[b]);
    score_ms.add(block_score_ms[b]);
  }
  for (std::size_t i = 0; i < block_labels.size(); ++i) {
    mismatches += block_labels[i] != reference[i] ? 1 : 0;
  }
  report.check(mismatches == 0,
               "trace: block encode+score labels differ from predict_batch");
  report.metric("hdc.encode_block_ms", encode_ms.median(), "ms",
                encode_ms.size());
  report.metric("hdc.score_block_ms", score_ms.median(), "ms",
                score_ms.size());
  const double ratio = *std::max_element(chunk_ms.begin(), chunk_ms.end()) /
                       (op_s.median() * 1e3);
  report.metric("infer.reconcile_ratio", ratio, "ratio", op_s.size());
  if (std::abs(ratio - 1.0) > kReconcileTolerance) {
    std::cerr << "perfbench: infer.reconcile_ratio " << ratio
              << " is outside 1 +- " << kReconcileTolerance << "\n";
  }

  const auto eval = pipeline.evaluate(batch);
  report.metric("hdc.encode_bytes_per_sample",
                static_cast<double>(eval.encode_bytes) /
                    static_cast<double>(eval.samples),
                "bytes");

  Samples single_us;
  {
    const OpMarker op("predict_single", 60.0);
    for (std::size_t i = 0; i < 128; ++i) {
      const double t0 = now_s();
      const int label = pipeline.predict(batch.sample(i));
      single_us.add((now_s() - t0) * 1e6);
      report.check(label == reference[i],
                   "trace: predict and predict_batch disagree");
    }
  }
  report.metric("hdc.encode_single_us", single_us.median(), "us",
                single_us.size());
}

/// Serve-side micro probes: predict_batch at the batch sizes the server
/// forms, and request/response framing.
void serve_probes(const Options& options, Report& report) {
  const OpMarker op("probe_serve", 60.0);
  const lehdc::obs::TraceSpan span("perfbench.probe.serve", "perfbench");
  const auto split = make_pamap(options.seed, kPamapTrain, 64);
  Pipeline pipeline(lehdc_config(options.seed, kPamapEpochs));
  (void)pipeline.fit(split.train);
  for (const std::size_t b : {std::size_t{1}, std::size_t{8},
                              std::size_t{64}}) {
    lehdc::data::Dataset subset(split.test.feature_count(),
                                split.test.class_count());
    for (std::size_t i = 0; i < b; ++i) {
      subset.add_sample(split.test.sample(i), split.test.label(i));
    }
    const Samples t = time_reps(b == 64 ? 200 : 1000, [&] {
      (void)pipeline.predict_batch(subset);
    });
    report.metric("core.predict_batch_us.b" + std::to_string(b),
                  t.median() * 1e6, "us", t.size());
  }

  lehdc::serve::WireRequest request;
  request.id = 42;
  const auto first = split.test.sample(0);
  request.features.assign(first.begin(), first.end());
  lehdc::serve::Response response;
  response.id = 42;
  response.label = 3;
  response.batch_size = 64;
  response.tenant = "default";
  constexpr int kFrames = 1000;
  std::string stream;
  const Samples encode = time_reps(20, [&] {
    stream.clear();
    for (int i = 0; i < kFrames; ++i) {
      stream += lehdc::serve::encode_request(request);
      stream += lehdc::serve::encode_response(response);
    }
  });
  report.metric("serve.frame_encode_us", encode.median() / kFrames * 1e6,
                "us", encode.size() * kFrames);

  std::string requests;
  for (int i = 0; i < kFrames; ++i) {
    requests += lehdc::serve::encode_request(request);
  }
  std::size_t decoded = 0;
  const Samples decode = time_reps(20, [&] {
    auto decoder = lehdc::serve::make_request_decoder("perfbench");
    decoder.feed(requests);
    lehdc::serve::FrameDecoder::Frame frame;
    while (decoder.next(&frame)) {
      const auto wire = lehdc::serve::decode_request_payload(
          frame.payload, frame.version, "perfbench");
      decoded += wire.features.size() == request.features.size() ? 1 : 0;
    }
  });
  report.check(decoded == 20 * kFrames, "trace: frame decode lost frames");
  report.metric("serve.frame_decode_us", decode.median() / kFrames * 1e6,
                "us", decode.size() * kFrames);
}

void serve_part(const Options& options, Report& report, double scale) {
  const ServeSession session = run_serve_session(options, report, scale);
  const Samples& low = session.low.latency_ms;
  report.metric("serve.low_p50_ms", low.quantile(0.5), "ms", low.size());
  report.metric("serve.low_p99_ms", low.quantile(0.99), "ms", low.size());
  report.metric("serve.high_p50_ms", session.high_p50_ms, "ms",
                session.high_measured);
  report.metric("serve.high_p99_ms", session.high_p99_ms, "ms",
                session.high_measured);
  report.metric("serve.sat_rps", session.sat_rps, "1/s", session.sat_measured);
  report.metric("serve.accuracy", session.accuracy, "fraction",
                session.low.labels.size());
  const auto& inproc = session.inproc_ms;
  report.metric("serve.inproc_p50_ms", inproc.quantile(0.5), "ms",
                inproc.size());
  report.metric("serve.inproc_p99_ms", inproc.quantile(0.99), "ms",
                inproc.size());
  report.metric("serve.batch_size_mean", session.batch_size_mean, "count");
  report.metric("serve.dispatch_p50_ms", session.dispatch_p50_ms, "ms");
  report.metric("serve.peak_queue_depth",
                static_cast<double>(session.peak_queue_depth), "count");
  report.metric("transport.overhead_p50_ms",
                session.high_p50_ms - inproc.quantile(0.5), "ms",
                session.high_measured);
  report.metric("transport.polls_per_request",
                static_cast<double>(session.polls) /
                    static_cast<double>(session.responses),
                "ratio");
  report.metric("online.ack_p50_ms", session.ack_ms.quantile(0.5), "ms",
                session.ack_ms.size());
  report.metric("online.ack_p99_ms", session.ack_ms.quantile(0.99), "ms",
                session.ack_ms.size());
  report.metric("online.flips", static_cast<double>(session.flips), "count");
  report.metric("online.updates", static_cast<double>(session.updates),
                "count");
  const Samples& lag = session.lag_ms;
  report.metric("gen.lag_p99_ms", lag.quantile(0.99), "ms", lag.size());
  report.context("gen_lag_p99_ms", std::to_string(lag.quantile(0.99)));
}

}  // namespace

void run_layers(const Options& options, Report& report) {
  const double full = options.work_scale();
  lehdc::obs::TraceBuffer::global().reserve(
      lehdc::obs::TraceBuffer::kDefaultCapacity);
  set_tracing(true);

  probe_pool_and_hv(options, report);
  const double batch_nn_ms = replay_nn(options, report);

  const auto split = make_mnist(options.seed, kTrainSamples, kInferBatch);
  const auto pipeline =
      train_part(options, report, split, kTrainEpochs, batch_nn_ms);
  const double infer_scale =
      options.workload == "infer-mnist" ? full : full / 4.0;
  infer_part(options, report, *pipeline, split.test,
             scaled_count(10, infer_scale, 3));

  serve_probes(options, report);
  serve_part(options, report, full / 2.0);

  set_tracing(false);
  if (const char* path = std::getenv("PERFBENCH_TRACE_OUT");
      path != nullptr && *path != '\0') {
    lehdc::obs::write_trace_json(path);
  }
}

}  // namespace perfbench
