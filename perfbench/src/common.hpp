// Shared plumbing of the benchmark runner: options, sample statistics,
// the result report, and the op markers the wrapper's watchdog reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Run length the caller asked for. Work per run is a fixed function of
  /// this value and the seed, never of the clock, so two runs with the
  /// same arguments do identical work.
  int seconds = 10;
  /// perfbench/run.py splits one run over `share` runner processes and
  /// takes medians across them; each process does 1/share of the work.
  int share = 1;
  bool trace = false;
  /// Self-test hook: corrupts one expected label so the output check must
  /// fail.
  bool corrupt_check = false;
  std::string commit = "unknown";

  /// Work multiplier: 1 for the counts sized for a 20 s run.
  [[nodiscard]] double work_scale() const {
    return static_cast<double>(seconds) / 20.0 / static_cast<double>(share);
  }
};

/// Monotonic wall time in seconds.
[[nodiscard]] double now_s();

/// `count` × `scale`, rounded, never below `floor`: how the workloads size
/// their work from Options::work_scale.
[[nodiscard]] std::size_t scaled_count(std::size_t count, double scale,
                                       std::size_t floor);

/// A list of measurements with order statistics.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  /// Linear-interpolated quantile, q in [0, 1]. Precondition: !empty().
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] const std::vector<double>& values() const noexcept {
    return values_;
  }

 private:
  std::vector<double> values_;
};

struct PhaseTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one run reports. Metrics keep insertion order.
class Report {
 public:
  /// Records a metric; `samples` is the number of measurements behind it
  /// (0 for counts and ratios that are not sampled).
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0);
  /// Records an output check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  PhaseTally& phase(const std::string& name) { return phases_[name]; }
  void context(const std::string& key, const std::string& value) {
    context_[key] = value;
  }
  [[nodiscard]] bool correct() const noexcept { return failures_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// Prints the context, per-phase tallies, sample counts and check
  /// failures as JSON lines, then the result object as the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::map<std::string, PhaseTally> phases_;
  std::map<std::string, std::string> context_;
};

/// Marks one watched op on stdout ("@op begin <name> <deadline_s>" then
/// "@op end <name>"). perfbench/run.py kills the process when an op
/// outlives its deadline and counts an op left open by a crash or a hang
/// as failed.
class OpMarker {
 public:
  OpMarker(const std::string& name, double deadline_s);
  ~OpMarker();
  OpMarker(const OpMarker&) = delete;
  OpMarker& operator=(const OpMarker&) = delete;

 private:
  std::string name_;
};

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Fills the run context: CPU model, nproc, global-pool workers, score
/// kernel, resolved batch encode path and the source commit.
void fill_context(const Options& options, Report& report);

/// The workloads (end-to-end metrics) and the traced layer run.
void run_train_mnist(const Options& options, Report& report);
void run_infer_mnist(const Options& options, Report& report);
void run_layers(const Options& options, Report& report);

}  // namespace perfbench
