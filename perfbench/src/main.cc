// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <sim_sleepers|sim_churn|rt_blocking> --seed <n>
//             --seconds <s> --trace <0|1> [--small] [--spans <path>]
//
// Prints one detail line and, as its last line, the JSON result:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// perfbench/run.py builds this binary and is the entry point.

#include <cstdlib>
#include <iostream>
#include <string>

#include "metrics.h"
#include "report.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <sim_sleepers|sim_churn|rt_blocking> --seed <n>"
            << " --seconds <s> --trace <0|1> [--small] [--spans <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      opts.small = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage("missing value for " + arg);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') {
        return Usage("bad --seed " + value);
      }
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return Usage("bad --trace " + value);
      }
      opts.trace = value == "1";
    } else if (arg == "--spans") {
      opts.spans_path = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }

  perfbench::Result result;
  if (opts.workload == "sim_sleepers") {
    result = perfbench::RunSimSleepers(opts);
  } else if (opts.workload == "sim_churn") {
    result = perfbench::RunSimChurn(opts);
  } else if (opts.workload == "rt_blocking") {
    result = perfbench::RunRtBlocking(opts);
  } else {
    return Usage("unknown workload '" + opts.workload + "'");
  }
  result.Print();
  return 0;
}
