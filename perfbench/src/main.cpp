// Benchmark runner: runs one workload and prints its result as JSON.
//
//   lehdc_perfbench --workload <train-mnist|infer-mnist>
//                   --seed N --seconds S --trace 0|1 [--share N]
//                   [--commit C] [--corrupt-check]
//
// --trace 0 measures the workload's end-to-end metrics; --trace 1 runs the
// traced layer suite instead (see perfbench/README.md). The last stdout
// line is {"correct", "attempted", "failed", "metrics"}. Exit code 0 only
// when every output check passed and no op failed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"

namespace {

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stoi(value());
    } else if (arg == "--share") {
      options.share = std::stoi(value());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--commit") {
      options.commit = value();
    } else if (arg == "--corrupt-check") {
      options.corrupt_check = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (options.seconds < 1 || options.share < 1) {
    throw std::invalid_argument("--seconds and --share must be at least 1");
  }
  if (options.workload != "train-mnist" && options.workload != "infer-mnist") {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "lehdc_perfbench: " << error.what() << "\n";
    return 2;
  }
  perfbench::Report report;
  perfbench::fill_context(options, report);
  try {
    if (options.trace) {
      perfbench::run_layers(options, report);
    } else if (options.workload == "train-mnist") {
      perfbench::run_train_mnist(options, report);
    } else {
      perfbench::run_infer_mnist(options, report);
    }
  } catch (const std::exception& error) {
    report.check(false, std::string("exception: ") + error.what());
  }
  report.print();
  return report.correct() && report.failed() == 0 ? EXIT_SUCCESS
                                                  : EXIT_FAILURE;
}
