#include "obs/schema.hpp"

#include <algorithm>
#include <array>

namespace lehdc::obs {

namespace {

// The lehdc.metrics.v1 name table. Keep sorted; one name per line.
// tools/lehdc_lint.py parses the block between the LINT-METRICS markers —
// do not reformat entries onto shared lines.
constexpr std::array kKnownNames = {
    // LINT-METRICS-BEGIN
    std::string_view{"encode.block_seconds"},
    std::string_view{"encode.bytes_per_sample"},
    std::string_view{"encode.samples"},
    std::string_view{"io.model_load_seconds"},
    std::string_view{"io.model_save_seconds"},
    std::string_view{"io.pipeline_load_seconds"},
    std::string_view{"io.pipeline_save_seconds"},
    std::string_view{"pipeline.batch_queries"},
    std::string_view{"score.chunk_seconds"},
    std::string_view{"score.queries"},
    std::string_view{"serve.batch_size"},
    std::string_view{"serve.batches"},
    std::string_view{"serve.conn.accepted"},
    std::string_view{"serve.conn.active"},
    std::string_view{"serve.conn.bytes_read"},
    std::string_view{"serve.conn.bytes_written"},
    std::string_view{"serve.conn.closed"},
    std::string_view{"serve.conn.read_stalls"},
    std::string_view{"serve.conn.write_stalls"},
    std::string_view{"serve.dispatch_seconds"},
    std::string_view{"serve.e2e_latency_seconds"},
    std::string_view{"serve.model_loads"},
    std::string_view{"serve.online.drift_alarm"},
    std::string_view{"serve.online.feedback"},
    std::string_view{"serve.online.flips"},
    std::string_view{"serve.online.queue_depth"},
    std::string_view{"serve.online.refinements"},
    std::string_view{"serve.online.rejected"},
    std::string_view{"serve.online.shadow_accuracy"},
    std::string_view{"serve.online.updates"},
    std::string_view{"serve.queue_depth"},
    std::string_view{"serve.rejected_bad_request"},
    std::string_view{"serve.rejected_deadline"},
    std::string_view{"serve.rejected_model_not_found"},
    std::string_view{"serve.rejected_queue_full"},
    std::string_view{"serve.rejected_shutdown"},
    std::string_view{"serve.requests"},
    std::string_view{"serve.responses"},
    std::string_view{"serve.tenant.queue_depth"},
    std::string_view{"serve.tenant.rejected"},
    std::string_view{"serve.tenant.requests"},
    std::string_view{"serve.tenant.responses"},
    std::string_view{"train.lehdc.checkpoint_seconds"},
    std::string_view{"train.lehdc.checkpoints"},
    std::string_view{"train.lehdc.epoch_seconds"},
    std::string_view{"train.lehdc.epochs"},
    std::string_view{"train.lehdc.loss"},
    std::string_view{"train.lehdc.test_accuracy"},
    std::string_view{"train.lehdc.train_accuracy"},
    std::string_view{"train.retrain.iterations"},
    std::string_view{"train.retrain.updates"},
    // LINT-METRICS-END
};

// Benchmarks compose names from profile/strategy/batch parameters
// (bench.inference.batch_all_threads.b1024_qps, bench.table1.mnist.lehdc_mean,
// ...); tests register throwaway names under test.*; the chaos harness
// (src/chaos) composes per-scenario names under chaos.*; the server
// appends a validated tenant id to the serve.tenant.* base names listed
// above. These namespaces are reserved wholesale rather than enumerated.
constexpr std::array kKnownPrefixes = {
    std::string_view{"bench."},
    std::string_view{"chaos."},
    std::string_view{"serve.tenant."},
    std::string_view{"test."},
};

static_assert(std::is_sorted(kKnownNames.begin(), kKnownNames.end()),
              "keep the schema name table sorted");

void collect_unknown(const Json& root, const char* section,
                     std::vector<std::string>& unknown) {
  const Json* list = root.find(section);
  if (list == nullptr || !list->is_array()) {
    return;
  }
  for (const Json& item : list->as_array()) {
    if (!item.is_object()) {
      continue;
    }
    const Json* name = item.find("name");
    if (name == nullptr || !name->is_string()) {
      continue;
    }
    if (!is_known_metric(name->as_string())) {
      unknown.push_back(name->as_string());
    }
  }
}

}  // namespace

std::span<const std::string_view> known_metric_names() noexcept {
  return {kKnownNames.data(), kKnownNames.size()};
}

std::span<const std::string_view> known_metric_prefixes() noexcept {
  return {kKnownPrefixes.data(), kKnownPrefixes.size()};
}

bool is_known_metric(std::string_view name) noexcept {
  if (std::binary_search(kKnownNames.begin(), kKnownNames.end(), name)) {
    return true;
  }
  for (const std::string_view prefix : kKnownPrefixes) {
    if (name.substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> unknown_metric_names(const Json& root) {
  std::vector<std::string> unknown;
  if (!root.is_object()) {
    return unknown;
  }
  collect_unknown(root, "counters", unknown);
  collect_unknown(root, "gauges", unknown);
  collect_unknown(root, "histograms", unknown);
  return unknown;
}

}  // namespace lehdc::obs
