#include "hdc/model_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "util/fileio.hpp"
#include "util/serial.hpp"

namespace lehdc::hdc {

namespace {

obs::Histogram& io_save_histogram() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("io.model_save_seconds");
  return histogram;
}

obs::Histogram& io_load_histogram() {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("io.model_load_seconds");
  return histogram;
}

}  // namespace

namespace {

constexpr char kMagic[4] = {'L', 'H', 'D', 'C'};
constexpr char kEnsembleMagic[4] = {'L', 'H', 'D', 'E'};
constexpr std::uint32_t kVersion = 2;

// Largest payload a well-formed header can declare. Even a paper-scale
// ensemble (10 classes x 64 models x D=10,000) is ~8 MiB; 2 GiB leaves two
// orders of magnitude of headroom while keeping a corrupt length field
// from triggering a near-OOM allocation.
constexpr std::size_t kMaxPayload = std::size_t{1} << 31;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::istream& in, T& value, const std::string& context) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("truncated model data: " + context);
  }
}

void append_words(util::PayloadWriter& payload, const hv::BitVector& hv) {
  const auto words = hv.words();
  payload.bytes(words.data(), words.size() * sizeof(words[0]));
}

hv::BitVector read_words(util::PayloadReader& reader, std::uint64_t dim) {
  hv::BitVector hv(dim);
  const auto words = hv.words();
  reader.bytes(words.data(), words.size() * sizeof(words[0]));
  return hv;
}

}  // namespace

void write_classifier(std::ostream& out, const BinaryClassifier& classifier) {
  util::PayloadWriter payload;
  payload.pod(static_cast<std::uint64_t>(classifier.dim()));
  payload.pod(static_cast<std::uint64_t>(classifier.class_count()));
  for (std::size_t k = 0; k < classifier.class_count(); ++k) {
    append_words(payload, classifier.class_hypervector(k));
  }
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  util::write_framed_payload(out, payload.str());
}

BinaryClassifier read_classifier(std::istream& in,
                                 const std::string& context) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not a LHDC model payload: " + context);
  }
  std::uint32_t version = 0;
  read_pod(in, version, context);
  if (version != kVersion) {
    throw std::runtime_error("unsupported model version in " + context);
  }

  const std::string payload =
      util::read_framed_payload(in, kMaxPayload, context);
  util::PayloadReader reader(payload, context);
  const auto dim = reader.pod<std::uint64_t>();
  const auto class_count = reader.pod<std::uint64_t>();
  if (dim == 0 || class_count == 0) {
    throw std::runtime_error("degenerate model header in " + context);
  }
  // The header must account for exactly the bytes that follow — checked
  // before any dim-sized allocation happens.
  const std::uint64_t remaining = reader.remaining();
  if (dim > remaining * 8 ||
      class_count > remaining / (((dim + 63) / 64) * sizeof(std::uint64_t))) {
    throw std::runtime_error("model header disagrees with payload size in " +
                             context);
  }
  std::vector<hv::BitVector> classes;
  classes.reserve(class_count);
  for (std::uint64_t k = 0; k < class_count; ++k) {
    classes.push_back(read_words(reader, dim));
  }
  reader.expect_done();
  return BinaryClassifier(std::move(classes));
}

void save_classifier(const BinaryClassifier& classifier,
                     const std::string& path) {
  const obs::ScopedTimer io_timer(io_save_histogram());
  std::ostringstream buffer(std::ios::binary);
  write_classifier(buffer, classifier);
  util::atomic_write_file(path, buffer.view());
}

BinaryClassifier load_classifier(const std::string& path) {
  const obs::ScopedTimer io_timer(io_load_histogram());
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open model file: " + path);
  }
  return read_classifier(in, path);
}

void save_ensemble(const EnsembleClassifier& classifier,
                   const std::string& path) {
  const obs::ScopedTimer io_timer(io_save_histogram());
  const auto& models = classifier.models();
  util::PayloadWriter payload;
  payload.pod(static_cast<std::uint64_t>(models.front().front().dim()));
  payload.pod(static_cast<std::uint64_t>(classifier.class_count()));
  payload.pod(static_cast<std::uint64_t>(classifier.models_per_class()));
  for (const auto& class_models : models) {
    for (const auto& model : class_models) {
      append_words(payload, model);
    }
  }

  std::ostringstream buffer(std::ios::binary);
  buffer.write(kEnsembleMagic, sizeof(kEnsembleMagic));
  write_pod(buffer, kVersion);
  util::write_framed_payload(buffer, payload.str());
  util::atomic_write_file(path, buffer.view());
}

EnsembleClassifier load_ensemble(const std::string& path) {
  const obs::ScopedTimer io_timer(io_load_histogram());
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open ensemble file: " + path);
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kEnsembleMagic, sizeof(kEnsembleMagic)) !=
                 0) {
    throw std::runtime_error("not a LHDE ensemble file: " + path);
  }
  std::uint32_t version = 0;
  read_pod(in, version, path);
  if (version != kVersion) {
    throw std::runtime_error("unsupported ensemble version in " + path);
  }

  const std::string payload = util::read_framed_payload(in, kMaxPayload, path);
  util::PayloadReader reader(payload, path);
  const auto dim = reader.pod<std::uint64_t>();
  const auto classes = reader.pod<std::uint64_t>();
  const auto per_class = reader.pod<std::uint64_t>();
  if (dim == 0 || classes == 0 || per_class == 0) {
    throw std::runtime_error("degenerate ensemble header in " + path);
  }
  const std::uint64_t remaining = reader.remaining();
  if (dim > remaining * 8 || classes > remaining || per_class > remaining ||
      classes * per_class >
          remaining / (((dim + 63) / 64) * sizeof(std::uint64_t))) {
    throw std::runtime_error(
        "ensemble header disagrees with payload size in " + path);
  }
  std::vector<std::vector<hv::BitVector>> models(classes);
  for (auto& class_models : models) {
    class_models.reserve(per_class);
    for (std::uint64_t m = 0; m < per_class; ++m) {
      class_models.push_back(read_words(reader, dim));
    }
  }
  reader.expect_done();
  return EnsembleClassifier(std::move(models));
}

}  // namespace lehdc::hdc
