#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "hdc/block_encoder.hpp"
#include "hv/batch_score.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

/// Full-precision number; non-finite values become null so the line stays
/// valid JSON and the wrapper rejects it loudly.
std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(std::min(line.size(), colon + 2));
      }
    }
  }
  return "unknown";
}

const char* encode_path_name(lehdc::hdc::EncodePath path) {
  switch (path) {
    case lehdc::hdc::EncodePath::kMaterialized:
      return "materialized";
    case lehdc::hdc::EncodePath::kRematerialized:
      return "rematerialized";
    case lehdc::hdc::EncodePath::kAuto:
      break;
  }
  return "auto";
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t scaled_count(std::size_t count, double scale,
                         std::size_t floor) {
  const auto want = static_cast<std::size_t>(
      std::llround(static_cast<double>(count) * scale));
  return std::max(floor, want);
}

double Samples::quantile(double q) const {
  if (values_.empty()) {
    throw std::logic_error("quantile of an empty sample");
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(sorted.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit, samples});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
    std::cerr << "perfbench: output check failed: " << what << "\n";
  }
}

std::uint64_t Report::attempted() const {
  std::uint64_t total = 0;
  for (const auto& [name, tally] : phases_) {
    total += tally.attempted;
  }
  return total;
}

std::uint64_t Report::failed() const {
  std::uint64_t total = 0;
  for (const auto& [name, tally] : phases_) {
    total += tally.failed;
  }
  return total;
}

void Report::print() const {
  std::ostringstream context;
  context << "{\"context\": {";
  bool first = true;
  for (const auto& [key, value] : context_) {
    context << (first ? "" : ", ") << json_string(key) << ": "
            << json_string(value);
    first = false;
  }
  context << "}}";

  std::ostringstream phases;
  phases << "{\"phases\": {";
  first = true;
  for (const auto& [name, tally] : phases_) {
    phases << (first ? "" : ", ") << json_string(name)
           << ": {\"attempted\": " << tally.attempted
           << ", \"failed\": " << tally.failed << "}";
    first = false;
  }
  phases << "}}";

  std::ostringstream samples;
  samples << "{\"samples\": {";
  first = true;
  for (const Metric& m : metrics_) {
    if (m.samples == 0) {
      continue;
    }
    samples << (first ? "" : ", ") << json_string(m.name) << ": "
            << m.samples;
    first = false;
  }
  samples << "}}";

  std::ostringstream checks;
  checks << "{\"check_failures\": [";
  first = true;
  for (const std::string& failure : failures_) {
    checks << (first ? "" : ", ") << json_string(failure);
    first = false;
  }
  checks << "]}";

  std::ostringstream result;
  result << "{\"correct\": " << (correct() ? "true" : "false")
         << ", \"attempted\": " << attempted()
         << ", \"failed\": " << failed() << ", \"metrics\": {";
  first = true;
  for (const Metric& m : metrics_) {
    result << (first ? "" : ", ") << json_string(m.name)
           << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  result << "}}";

  std::cout << context.str() << "\n"
            << phases.str() << "\n"
            << samples.str() << "\n"
            << checks.str() << "\n"
            << result.str() << std::endl;
}

OpMarker::OpMarker(const std::string& name, double deadline_s)
    : name_(name) {
  std::cout << "@op begin " << name_ << " " << json_number(deadline_s)
            << std::endl;
}

OpMarker::~OpMarker() { std::cout << "@op end " << name_ << std::endl; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void fill_context(const Options& options, Report& report) {
  report.context("workload", options.workload);
  report.context("seed", std::to_string(options.seed));
  report.context("seconds", std::to_string(options.seconds));
  report.context("share", std::to_string(options.share));
  report.context("trace", options.trace ? "1" : "0");
  report.context("cpu_model", cpu_model());
  report.context("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.context("pool_workers",
                 std::to_string(lehdc::util::ThreadPool::global().worker_count()));
  report.context("score_kernel", lehdc::hv::score_kernel_name());
  report.context("encode_path_batch",
                 encode_path_name(lehdc::hdc::resolve_encode_path(
                     lehdc::hdc::EncodePath::kAuto, 1024)));
  report.context("encode_path_single",
                 encode_path_name(lehdc::hdc::resolve_encode_path(
                     lehdc::hdc::EncodePath::kAuto, 1)));
  report.context("commit", options.commit);
}

}  // namespace perfbench
