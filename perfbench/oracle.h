// Ground truth for the benchmark's queries (perfbench, see README.md).
//
// The reference answers are computed from the generator's raw values, kept
// in memory during set-up, never from the engine. Tolerances follow the
// uniform error norm of the paper's Definition 4 with a relative bound of
// ε percent, where δ(v) = (ε/100 + kFloatSlack)·|v|:
//   COUNT       exact;
//   MIN / MAX   inside [min(v − δ(v)), min(v + δ(v))] (resp. max), the
//               interval any ε-bounded approximation of the points admits;
//   SUM         within Σ δ(v), plus double-summation slack;
//   AVG         within Σ δ(v) / COUNT, plus the same slack;
//   P/R         the same (Tid, TS) set, each value within δ(v).
// kFloatSlack covers the engine's float storage of values (a few ulps of a
// float), so a lossless bound still compares decoded floats safely.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "query/result.h"
#include "util/status.h"
#include "workload/queries.h"

namespace modelardb {
namespace perfbench {

inline constexpr double kFloatSlack = 1e-6;

// δ(v): how far an answer for `value` may be off under `error_pct`.
inline double Delta(double error_pct, double value) {
  return (error_pct / 100.0 + kFloatSlack) * std::abs(value);
}

// Aggregates of one result group under the ε tolerance.
struct AggTruth {
  int64_t count = 0;
  double sum = 0.0;
  double abs_sum = 0.0;  // Σ|v|: the SUM/AVG tolerance base.
  double min_lo = 0.0, min_hi = 0.0;  // Admissible MIN interval.
  double max_lo = 0.0, max_hi = 0.0;  // Admissible MAX interval.

  void Add(double value, double delta);
  void Merge(const AggTruth& other);
};

// The expected answer of one query.
struct Expected {
  enum class Kind { kAggregate, kPoints };
  Kind kind = Kind::kAggregate;
  int agg = 0;  // Index into {COUNT, MIN, MAX, SUM, AVG} (kAggregate).
  double error_pct = 0.0;  // ε the answer is judged under.
  // Group key (the result row minus its last cell) → truth.
  std::map<std::vector<query::Cell>, AggTruth> groups;
  // (Tid, TS, raw value) in the result's sort order (kPoints).
  std::vector<std::vector<query::Cell>> points;
};

// Reference answers for one data set ingested under ε, computed from the
// generator's raw values (RawValue/Present), independently of the rows the
// engine ingests.
class Oracle {
 public:
  Oracle(const workload::SyntheticDataset* dataset, double error_pct);

  Expected ForAgg(const workload::AggSpec& spec) const;
  Expected ForPr(const workload::PrSpec& spec) const;
  Expected ForMAgg(const workload::MAggSpec& spec) const;

 private:
  // Merges every monthly truth of series `tid` into `truth`.
  void AddSeries(Tid tid, AggTruth* truth) const;

  const workload::SyntheticDataset* dataset_;
  double error_pct_;
  // Per series, per calendar month (index into months_): precomputed
  // truths, so aggregate references cost O(series × months).
  std::vector<std::vector<AggTruth>> monthly_;
  std::vector<int64_t> months_;  // TimeBucket(MONTH) of each month index.
};

// OK when `result` is an acceptable answer to `expected` under its ε,
// else an InvalidArgument describing the first mismatch.
Status CheckAnswer(const Expected& expected,
                   const query::QueryResult& result);

}  // namespace perfbench
}  // namespace modelardb

#endif  // PERFBENCH_ORACLE_H_
