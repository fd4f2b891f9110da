// perfbench: the front-door ingest and query benchmark (see README.md).
//
//   perfbench --workload <ingest_ep|query_ep|online_eh> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--size <x>]
//
// Prints one line per metric ("name value unit"), then a FINGERPRINT line
// and a RESULT line, each a JSON object; perfbench/run.py turns them into
// the benchmark's result. Failure descriptions and warnings go to stderr.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using modelardb::perfbench::Options;
using modelardb::perfbench::Outcome;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--size <x>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--size") {
      options.size = std::atof(value.c_str());
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || options.workload.empty() || options.work_dir.empty() ||
      options.seconds <= 0.0 || options.size <= 0.0) {
    return Usage();
  }

  auto outcome = modelardb::perfbench::RunWorkload(options);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  for (const std::string& note : outcome->notes) {
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  }
  std::string fingerprint = "{";
  for (size_t i = 0; i < outcome->fingerprint.size(); ++i) {
    if (i > 0) fingerprint += ", ";
    fingerprint += JsonString(outcome->fingerprint[i].first) + ": " +
                   JsonString(outcome->fingerprint[i].second);
  }
  fingerprint += "}";
  std::string metrics = "{";
  for (size_t i = 0; i < outcome->metrics.size(); ++i) {
    const auto& metric = outcome->metrics[i];
    std::printf("%-40s %.9g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (i > 0) metrics += ", ";
    metrics += JsonString(metric.name) + ": {\"value\": " + value +
               ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  metrics += "}";
  std::printf("FINGERPRINT %s\n", fingerprint.c_str());
  std::printf("RESULT {\"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              static_cast<long long>(outcome->attempted),
              static_cast<long long>(outcome->failed), metrics.c_str());
  return 0;
}
