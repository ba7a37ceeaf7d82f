#include "core/pipeline_io.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "hdc/model_io.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/check.hpp"
#include "util/fileio.hpp"
#include "util/serial.hpp"

namespace lehdc::core {

namespace {

constexpr char kMagic[4] = {'L', 'H', 'D', 'P'};
constexpr std::uint32_t kVersion = 2;

// Bundles embed one classifier plus a fixed-size config block; 2 GiB is
// far beyond any legitimate bundle (see hdc/model_io.cpp).
constexpr std::size_t kMaxPayload = std::size_t{1} << 31;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::istream& in, T& value, const std::string& path) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("truncated pipeline bundle: " + path);
  }
}

}  // namespace

void save_pipeline(const Pipeline& pipeline, const std::string& path) {
  static obs::Histogram& save_hist =
      obs::Registry::global().histogram("io.pipeline_save_seconds");
  const obs::ScopedTimer io_timer(save_hist);
  util::expects(pipeline.fitted(), "cannot save an unfitted pipeline");
  const auto* binary = pipeline.model().as_binary();
  util::expects(binary != nullptr,
                "only binary-classifier models are bundle-serializable");
  const auto& encoder =
      dynamic_cast<const hdc::RecordEncoder&>(pipeline.encoder());
  const hdc::RecordEncoderConfig& encoder_cfg = encoder.config();
  const PipelineConfig& cfg = pipeline.config();

  util::PayloadWriter payload;
  payload.pod(static_cast<std::uint64_t>(cfg.dim));
  payload.pod(static_cast<std::uint64_t>(cfg.levels));
  payload.pod(static_cast<std::uint64_t>(cfg.seed));
  payload.pod(static_cast<std::uint32_t>(cfg.strategy));

  payload.pod(static_cast<std::uint64_t>(encoder_cfg.dim));
  payload.pod(static_cast<std::uint64_t>(encoder_cfg.feature_count));
  payload.pod(static_cast<std::uint64_t>(encoder_cfg.levels));
  payload.pod(encoder_cfg.range_lo);
  payload.pod(encoder_cfg.range_hi);
  payload.pod(static_cast<std::uint64_t>(encoder_cfg.seed));

  std::ostringstream classifier_bytes(std::ios::binary);
  hdc::write_classifier(classifier_bytes, *binary);
  const std::string classifier_blob = classifier_bytes.str();
  payload.bytes(classifier_blob.data(), classifier_blob.size());

  std::ostringstream buffer(std::ios::binary);
  buffer.write(kMagic, sizeof(kMagic));
  write_pod(buffer, kVersion);
  util::write_framed_payload(buffer, payload.str());
  util::atomic_write_file(path, buffer.view());
}

namespace {

/// Rejects an encoder config that RecordEncoder would refuse, or whose
/// item memories would take more than kMaxPayload bytes, before anything
/// is built from it: a CRC-valid bundle can still declare any value.
void check_encoder_config(const hdc::RecordEncoderConfig& encoder_cfg,
                          const PipelineConfig& cfg, const std::string& path) {
  const auto reject = [&](const std::string& what) {
    throw std::runtime_error(what + " in pipeline bundle: " + path);
  };
  const std::uint64_t dim = encoder_cfg.dim;
  if (dim == 0 || dim != cfg.dim) {
    reject("encoder/pipeline dimension mismatch");
  }
  if (encoder_cfg.feature_count == 0) {
    reject("encoder with no features");
  }
  if (encoder_cfg.levels < 2 || encoder_cfg.levels > dim) {
    reject("encoder level count outside [2, dim]");
  }
  if (!std::isfinite(encoder_cfg.range_lo) ||
      !std::isfinite(encoder_cfg.range_hi) ||
      !(encoder_cfg.range_lo < encoder_cfg.range_hi)) {
    reject("encoder value range is not a finite lo < hi");
  }
  // Footprint: (feature_count + levels) stored rows of ceil(dim/64)
  // words, plus the level set's dim-long shuffle permutation.
  if (dim > kMaxPayload / sizeof(std::size_t)) {
    reject("oversized encoder dimension");
  }
  const std::uint64_t row_bytes = ((dim + 63) / 64) * sizeof(std::uint64_t);
  const std::uint64_t rows =
      (kMaxPayload - dim * sizeof(std::size_t)) / row_bytes;
  if (encoder_cfg.feature_count > rows ||
      encoder_cfg.levels > rows - encoder_cfg.feature_count) {
    reject("oversized encoder item memories");
  }
}

Pipeline restore_from_reader(util::PayloadReader& reader,
                             const std::string& path) {
  PipelineConfig cfg;
  cfg.dim = reader.pod<std::uint64_t>();
  cfg.levels = reader.pod<std::uint64_t>();
  cfg.seed = reader.pod<std::uint64_t>();
  const auto strategy = reader.pod<std::uint32_t>();
  if (strategy > static_cast<std::uint32_t>(Strategy::kLeHdc)) {
    throw std::runtime_error("unknown strategy id in pipeline bundle: " +
                             path);
  }
  cfg.strategy = static_cast<Strategy>(strategy);

  hdc::RecordEncoderConfig encoder_cfg;
  encoder_cfg.dim = reader.pod<std::uint64_t>();
  encoder_cfg.feature_count = reader.pod<std::uint64_t>();
  encoder_cfg.levels = reader.pod<std::uint64_t>();
  encoder_cfg.range_lo = reader.pod<float>();
  encoder_cfg.range_hi = reader.pod<float>();
  encoder_cfg.seed = reader.pod<std::uint64_t>();
  check_encoder_config(encoder_cfg, cfg, path);

  const std::string_view blob = reader.rest();
  std::istringstream classifier_stream{std::string(blob), std::ios::binary};
  hdc::BinaryClassifier classifier =
      hdc::read_classifier(classifier_stream, path);
  if (classifier.dim() != cfg.dim) {
    throw std::runtime_error(
        "classifier/pipeline dimension mismatch in pipeline bundle: " + path);
  }
  return Pipeline::restore(cfg, encoder_cfg, std::move(classifier));
}

}  // namespace

Pipeline load_pipeline(const std::string& path) {
  static obs::Histogram& load_hist =
      obs::Registry::global().histogram("io.pipeline_load_seconds");
  const obs::ScopedTimer io_timer(load_hist);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open pipeline bundle: " + path);
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a LHDP pipeline bundle: " + path);
  }
  std::uint32_t version = 0;
  read_pod(in, version, path);
  if (version != kVersion) {
    throw std::runtime_error("unsupported pipeline bundle version in " +
                             path);
  }
  const std::string payload = util::read_framed_payload(in, kMaxPayload, path);
  util::PayloadReader reader(payload, path);
  return restore_from_reader(reader, path);
}

}  // namespace lehdc::core
