// Binary model serialization.
//
// Persists a trained BinaryClassifier (and the encoder configuration needed
// to rebuild its item memories deterministically) so a model trained by any
// strategy — including LeHDC — can be deployed to the unchanged HDC
// inference path on another machine.
//
// Format v2 (little-endian, checksummed — see util/fileio.hpp):
//   magic "LHDC" | u32 version | u64 payload_size | payload | u32 crc32
//   payload := u64 dim | u64 class_count
//              | per class: dim-bit packed payload (ceil(dim/64) u64 words)
// Only v2 loads: any other version, the unframed v1 included, is a
// std::runtime_error before any header-sized allocation. Saves are
// atomic: a crash mid-save never leaves a torn file at the target path
// (write-to-temp-then-rename), and any later bit corruption of the
// payload is detected at load time via the CRC.
#pragma once

#include <iosfwd>
#include <string>

#include "hdc/classifier.hpp"

namespace lehdc::hdc {

/// Writes the classifier to `path`; throws std::runtime_error on I/O
/// failure.
void save_classifier(const BinaryClassifier& classifier,
                     const std::string& path);

/// Reads a classifier back; throws std::runtime_error on I/O failure or a
/// malformed/incompatible file.
[[nodiscard]] BinaryClassifier load_classifier(const std::string& path);

/// Stream-level variants used to embed a classifier inside container
/// formats (e.g. the pipeline bundles of core/pipeline_io.hpp). The stream
/// forms write/read exactly the same bytes as the file forms.
void write_classifier(std::ostream& out, const BinaryClassifier& classifier);
[[nodiscard]] BinaryClassifier read_classifier(std::istream& in,
                                               const std::string& context);

/// Ensemble (multi-model) persistence: magic "LHDE", then K x M packed
/// hypervectors. Same error contract as the classifier functions.
void save_ensemble(const EnsembleClassifier& classifier,
                   const std::string& path);
[[nodiscard]] EnsembleClassifier load_ensemble(const std::string& path);

}  // namespace lehdc::hdc
