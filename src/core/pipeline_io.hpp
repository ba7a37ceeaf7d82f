// Pipeline bundles: one file holding everything needed to deploy a fitted
// pipeline on another machine — the pipeline settings, the encoder
// configuration (item memories regenerate deterministically from it), and
// the trained binary class hypervectors.
//
// Format v2 (little-endian, checksummed — see util/fileio.hpp):
//   magic "LHDP" | u32 version | u64 payload_size | payload | u32 crc32
//   payload :=
//     pipeline: u64 dim, u64 levels, u64 seed, u32 strategy
//   | encoder:  u64 dim, u64 feature_count, u64 levels, f32 lo, f32 hi,
//               u64 seed
//   | embedded LHDC classifier blob (hdc/model_io.hpp, itself checksummed)
// Only v2 loads; any other version, the unframed v1 included, and an
// embedded classifier blob of any other version are a std::runtime_error.
// The encoder config is validated (and its item-memory footprint capped)
// before any item memory is built. Saves are atomic
// (write-to-temp-then-rename).
#pragma once

#include <string>

#include "core/pipeline.hpp"

namespace lehdc::core {

/// Persists a fitted pipeline. Preconditions: pipeline.fitted() and the
/// trained model is a plain binary classifier (as_binary() != nullptr) —
/// true for baseline, the retraining variants and LeHDC.
/// Throws std::runtime_error on I/O failure.
void save_pipeline(const Pipeline& pipeline, const std::string& path);

/// Restores a pipeline bundle; the result predicts bit-identically to the
/// pipeline that was saved. Throws std::runtime_error on I/O failure or a
/// malformed file.
[[nodiscard]] Pipeline load_pipeline(const std::string& path);

}  // namespace lehdc::core
