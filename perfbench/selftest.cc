// The benchmark's own check of its oracle: real engine answers must pass,
// and deliberately perturbed answers must not — a SUM shifted past its
// bound, a COUNT off by one, a dropped P/R point, a P/R value moved past ε.
// Exits 0 when every expectation holds.

#include <cmath>
#include <cstdio>
#include <string>
#include <variant>

#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "oracle.h"
#include "partition/partitioner.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace {

using namespace modelardb;
using perfbench::CheckAnswer;
using perfbench::Expected;

int failures = 0;

void Expect(bool condition, const std::string& what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what.c_str());
  if (!condition) ++failures;
}

void CheckOneBound(double error_pct) {
  const std::string tag = " (ε = " + std::to_string(error_pct) + "%)";
  workload::SyntheticDataset ds =
      workload::SyntheticDataset::Ep(/*entities=*/2, /*rows=*/3000, 7);
  auto groups = Partitioner::Partition(ds.catalog(), ds.BestHints());
  Expect(groups.ok(), "partition" + tag);
  if (!groups.ok()) return;
  ModelRegistry registry = ModelRegistry::Default();
  cluster::ClusterConfig config;
  config.num_workers = 2;
  config.error_bound = error_pct == 0.0 ? ErrorBound::Lossless()
                                        : ErrorBound::Relative(error_pct);
  auto engine =
      cluster::ClusterEngine::Create(ds.catalog(), *groups, &registry, config);
  Expect(engine.ok(), "create" + tag);
  if (!engine.ok()) return;
  auto report = ingest::RunPipeline(engine->get(), ds.MakeSources(*groups), {});
  Expect(report.ok(), "ingest" + tag);
  if (!report.ok()) return;

  perfbench::Oracle oracle(&ds, error_pct);
  using workload::QueryTarget;

  // SUM over every series.
  workload::AggSpec sum_spec;
  sum_spec.agg = 3;
  Expected sum = oracle.ForAgg(sum_spec);
  auto sum_result = (*engine)->Execute(
      workload::ToSql(sum_spec, QueryTarget::kSegmentView));
  Expect(sum_result.ok() && CheckAnswer(sum, *sum_result).ok(),
         "real SUM accepted" + tag);
  if (sum_result.ok() && !sum_result->rows.empty()) {
    const auto& truth = sum.groups.begin()->second;
    // Just past the tolerance, which is (ε/100 + ~1e-6)·Σ|v|.
    const double shift = 1.1 * (error_pct / 100.0 + 2e-6) * truth.abs_sum;
    query::QueryResult shifted = *sum_result;
    shifted.rows[0].back() = truth.sum + shift;
    Expect(!CheckAnswer(sum, shifted).ok(),
           "SUM past its bound rejected" + tag);
  }

  // COUNT grouped by Tid.
  workload::AggSpec count_spec;
  count_spec.agg = 0;
  count_spec.group_by_tid = true;
  Expected count = oracle.ForAgg(count_spec);
  auto count_result = (*engine)->Execute(
      workload::ToSql(count_spec, QueryTarget::kDataPointView));
  Expect(count_result.ok() && CheckAnswer(count, *count_result).ok(),
         "real COUNT accepted" + tag);
  if (count_result.ok() && !count_result->rows.empty()) {
    query::QueryResult off = *count_result;
    off.rows[0].back() = std::get<int64_t>(off.rows[0].back()) + 1;
    Expect(!CheckAnswer(count, off).ok(), "COUNT off by one rejected" + tag);
  }

  // A range query on one series.
  workload::PrSpec pr_spec;
  pr_spec.tid = 1;
  pr_spec.min_time = ds.TimestampAt(100);
  pr_spec.max_time = ds.TimestampAt(400);
  Expected pr = oracle.ForPr(pr_spec);
  auto pr_result = (*engine)->Execute(workload::ToSql(pr_spec));
  Expect(pr_result.ok() && CheckAnswer(pr, *pr_result).ok() &&
             !pr_result->rows.empty(),
         "real P/R accepted" + tag);
  if (pr_result.ok() && pr_result->rows.size() > 1) {
    query::QueryResult dropped = *pr_result;
    dropped.rows.erase(dropped.rows.begin() + dropped.rows.size() / 2);
    Expect(!CheckAnswer(pr, dropped).ok(), "dropped P/R point rejected" + tag);

    query::QueryResult moved = *pr_result;
    const double value = std::get<double>(pr.points[0][2]);
    moved.rows[0][2] = value + 1.1 * perfbench::Delta(error_pct, value) + 1e-3;
    Expect(!CheckAnswer(pr, moved).ok(), "P/R value past ε rejected" + tag);
  }
}

}  // namespace

int main() {
  CheckOneBound(0.0);
  CheckOneBound(1.0);
  CheckOneBound(5.0);
  std::printf("%s\n", failures == 0 ? "oracle self-test passed"
                                    : "oracle self-test FAILED");
  return failures == 0 ? 0 : 1;
}
