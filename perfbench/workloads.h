// The benchmark's workloads (perfbench, see README.md).
//
// Every workload drives the engine through its front door only —
// ClusterEngine::Create, ingest::RunPipeline and ClusterEngine::Execute(sql)
// — with ClusterConfig defaults and two workers, and runs the same phases:
//   set-up   generate the data set (materialized rows), partition it,
//            create the engine; repeated, its median is setup_s;
//   ingest   RunPipeline rounds into fresh roots (ingest_pts_per_s,
//            bytes_per_point), with a concurrent S-AGG client on online_eh;
//   query    a closed-loop client over the S-AGG, L-AGG, L-AGG on the Data
//            Point View, M-AGG and P/R sets of workload/queries.h;
//   reopen   Create on the last root plus a first checked S-AGG (reopen_s),
//            then every query set once more against the recovered engine.
// Every answer is checked against the Oracle. With `trace` the same phases
// run twice, plain and traced, and only per-layer numbers are reported.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace modelardb {
namespace perfbench {

struct Options {
  std::string workload;  // ingest_ep | query_ep | online_eh
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Directory under which the engine's storage roots are created.
  std::string work_dir;
  // Data-set size multiplier (1.0 is the benchmark; the self-check runs
  // tiny sizes).
  double size = 1.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  // Fingerprint fields (key, value) the run can observe from inside.
  std::vector<std::pair<std::string, std::string>> fingerprint;
  // First few failure descriptions and warnings, for stderr.
  std::vector<std::string> notes;
};

Result<Outcome> RunWorkload(const Options& options);

}  // namespace perfbench
}  // namespace modelardb

#endif  // PERFBENCH_WORKLOADS_H_
