// perfbench — the repository benchmark binary (see ../README.md). run.py builds and
// invokes it; it runs one workload and prints one JSON object as its last line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "src/base/logging.h"
#include "src/base/thread_pool.h"

namespace {

using perfbench::Args;
using perfbench::Result;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--out-dir <dir>] [--commit <id>]\n");
    return 2;
  }
  // The library logs every search decision at Info; keep the benchmark's stdout to
  // its own lines.
  parallax::SetMinLogLevel(parallax::LogSeverity::kWarning);

  Result result;
  if (args.workload == "lm_sparse") {
    result = perfbench::RunLmSparse(args);
  } else if (args.workload == "mlp_dense") {
    result = perfbench::RunMlpDense(args);
  } else if (args.workload == "plan_service") {
    result = perfbench::RunPlanService(args);
  } else if (args.workload == "lm_elastic") {
    result = perfbench::RunLmElastic(args);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "workload '%s' attempted nothing\n", args.workload.c_str());
    return 1;
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }

  // Stamps: the host and the thread pools in effect for this run.
  result.info["nproc"] = std::thread::hardware_concurrency();
  result.info["sparse_pool_threads"] = parallax::DefaultSparseThreads();
  result.info["failed_ratio"] =
      static_cast<double>(result.failed) / static_cast<double>(result.attempted);

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(metric.first) +
            ", \"unit\": " + JsonString(metric.second) + "}";
  }
  line += "}, \"info\": {";
  first = true;
  for (const auto& [name, value] : result.info) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name) + ": " + JsonNumber(value);
  }
  line += "}, \"unreached\": [";
  first = true;
  for (const std::string& name : result.unreached) {
    line += first ? "" : ", ";
    first = false;
    line += JsonString(name);
  }
  line += "], \"stamp\": {\"workload\": " + JsonString(args.workload) +
          ", \"seed\": " + std::to_string(args.seed) +
          ", \"trace\": " + (args.trace ? "1" : "0") +
          ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
          ", \"commit\": " + JsonString(args.commit) + "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
