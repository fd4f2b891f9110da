#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <variant>

#include "util/time_util.h"

namespace modelardb {
namespace perfbench {
namespace {

constexpr const char* kAggNames[] = {"COUNT", "MIN", "MAX", "SUM", "AVG"};

// Relative slack for double summation over up to ~10^7 terms.
constexpr double kSumSlack = 1e-9;

double AsDouble(const query::Cell& cell) {
  if (const double* d = std::get_if<double>(&cell)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&cell)) {
    return static_cast<double>(*i);
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string KeyText(const std::vector<query::Cell>& key) {
  std::string text = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) text += ", ";
    text += query::CellToString(key[i]);
  }
  return text + ")";
}

Status Mismatch(const std::string& what) {
  return Status::InvalidArgument("wrong answer: " + what);
}

// Checks one finalized aggregate against its truth.
Status CheckAggregate(int agg, const AggTruth& truth, double error_pct,
                      const query::Cell& cell, const std::string& where) {
  const double got = AsDouble(cell);
  const std::string label = std::string(kAggNames[agg]) + " " + where;
  if (std::isnan(got)) return Mismatch(label + " is not a number");
  if (agg == 0) {
    if (got != static_cast<double>(truth.count)) {
      return Mismatch(label + " = " + query::CellToString(cell) +
                      ", expected " + std::to_string(truth.count));
    }
    return Status::OK();
  }
  if (truth.count == 0) {
    // The engine finalizes an empty aggregate to 0.
    if (got != 0.0) return Mismatch(label + " over no points is not 0");
    return Status::OK();
  }
  double lo = 0.0, hi = 0.0;
  switch (agg) {
    case 1:
      lo = truth.min_lo;
      hi = truth.min_hi;
      break;
    case 2:
      lo = truth.max_lo;
      hi = truth.max_hi;
      break;
    default: {
      // Σ δ(v) plus double-summation slack.
      const double tolerance =
          (error_pct / 100.0 + kFloatSlack + kSumSlack) * truth.abs_sum;
      lo = truth.sum - tolerance;
      hi = truth.sum + tolerance;
      if (agg == 4) {
        lo /= static_cast<double>(truth.count);
        hi /= static_cast<double>(truth.count);
      }
      break;
    }
  }
  if (got < lo || got > hi) {
    return Mismatch(label + " = " + query::CellToString(cell) +
                    " outside [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
  }
  return Status::OK();
}

}  // namespace

void AggTruth::Add(double value, double delta) {
  if (count == 0) {
    min_lo = value - delta;
    min_hi = value + delta;
    max_lo = value - delta;
    max_hi = value + delta;
  } else {
    min_lo = std::min(min_lo, value - delta);
    min_hi = std::min(min_hi, value + delta);
    max_lo = std::max(max_lo, value - delta);
    max_hi = std::max(max_hi, value + delta);
  }
  ++count;
  sum += value;
  abs_sum += std::abs(value);
}

void AggTruth::Merge(const AggTruth& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  count += other.count;
  sum += other.sum;
  abs_sum += other.abs_sum;
  min_lo = std::min(min_lo, other.min_lo);
  min_hi = std::min(min_hi, other.min_hi);
  max_lo = std::max(max_lo, other.max_lo);
  max_hi = std::max(max_hi, other.max_hi);
}

Oracle::Oracle(const workload::SyntheticDataset* dataset, double error_pct)
    : dataset_(dataset), error_pct_(error_pct) {
  const int64_t rows = dataset->rows_per_series();
  std::vector<int> month_of(rows);
  for (int64_t row = 0; row < rows; ++row) {
    int64_t bucket = TimeBucket(dataset->TimestampAt(row), TimeLevel::kMonth);
    if (months_.empty() || months_.back() != bucket) months_.push_back(bucket);
    month_of[row] = static_cast<int>(months_.size()) - 1;
  }
  monthly_.assign(dataset->num_series(),
                  std::vector<AggTruth>(months_.size()));
  for (Tid tid = 1; tid <= dataset->num_series(); ++tid) {
    std::vector<AggTruth>& series = monthly_[tid - 1];
    for (int64_t row = 0; row < rows; ++row) {
      if (!dataset->Present(tid, row)) continue;
      const double value = dataset->RawValue(tid, row);
      series[month_of[row]].Add(value, Delta(error_pct_, value));
    }
  }
}

void Oracle::AddSeries(Tid tid, AggTruth* truth) const {
  for (const AggTruth& month : monthly_[tid - 1]) truth->Merge(month);
}

Expected Oracle::ForAgg(const workload::AggSpec& spec) const {
  Expected expected;
  expected.agg = spec.agg;
  expected.error_pct = error_pct_;
  std::vector<Tid> tids = spec.tids;
  if (tids.empty()) {
    for (Tid tid = 1; tid <= dataset_->num_series(); ++tid) {
      tids.push_back(tid);
    }
  }
  if (!spec.group_by_tid) {
    AggTruth& truth = expected.groups[{}];
    for (Tid tid : tids) AddSeries(tid, &truth);
    return expected;
  }
  for (Tid tid : tids) {
    AggTruth truth;
    AddSeries(tid, &truth);
    if (truth.count > 0) {
      expected.groups[{static_cast<int64_t>(tid)}] = truth;
    }
  }
  return expected;
}

Expected Oracle::ForMAgg(const workload::MAggSpec& spec) const {
  Expected expected;
  expected.agg = spec.agg;
  expected.error_pct = error_pct_;
  const TimeSeriesCatalog& catalog = dataset_->catalog();
  for (Tid tid : catalog.SeriesWithMember(spec.where_dim, spec.where_level,
                                          spec.where_member)) {
    std::vector<query::Cell> key = {
        catalog.Member(tid, spec.group_dim, spec.group_level)};
    if (spec.also_group_by_tid) key.emplace_back(static_cast<int64_t>(tid));
    for (size_t m = 0; m < months_.size(); ++m) {
      const AggTruth& month = monthly_[tid - 1][m];
      if (month.count == 0) continue;
      std::vector<query::Cell> month_key = key;
      month_key.emplace_back(months_[m]);
      expected.groups[month_key].Merge(month);
    }
  }
  return expected;
}

Expected Oracle::ForPr(const workload::PrSpec& spec) const {
  Expected expected;
  expected.kind = Expected::Kind::kPoints;
  expected.error_pct = error_pct_;
  const int64_t rows = dataset_->rows_per_series();
  const Timestamp start = dataset_->TimestampAt(0);
  const SamplingInterval si = dataset_->si();
  // Rows whose timestamps fall in [min_time, max_time].
  int64_t first = std::max<int64_t>(0, (spec.min_time - start + si - 1) / si);
  int64_t last = std::min<int64_t>(rows - 1, (spec.max_time - start) / si);
  std::vector<Tid> tids;
  if (spec.tid != 0) {
    tids.push_back(spec.tid);
  } else {
    for (Tid tid = 1; tid <= dataset_->num_series(); ++tid) {
      tids.push_back(tid);
    }
  }
  for (Tid tid : tids) {
    for (int64_t row = first; row <= last; ++row) {
      if (!dataset_->Present(tid, row)) continue;
      expected.points.push_back(
          {static_cast<int64_t>(tid), dataset_->TimestampAt(row),
           static_cast<double>(dataset_->RawValue(tid, row))});
    }
  }
  return expected;
}

Status CheckAnswer(const Expected& expected,
                   const query::QueryResult& result) {
  const double error_pct = expected.error_pct;
  if (expected.kind == Expected::Kind::kPoints) {
    if (result.rows.size() != expected.points.size()) {
      return Mismatch(std::to_string(result.rows.size()) + " points, " +
                      "expected " + std::to_string(expected.points.size()));
    }
    for (size_t i = 0; i < result.rows.size(); ++i) {
      const std::vector<query::Cell>& row = result.rows[i];
      const std::vector<query::Cell>& want = expected.points[i];
      if (row.size() != 3 || AsDouble(row[0]) != AsDouble(want[0]) ||
          AsDouble(row[1]) != AsDouble(want[1])) {
        return Mismatch("point " + KeyText(row) + ", expected " +
                        KeyText(want));
      }
      const double value = AsDouble(want[2]);
      const double got = AsDouble(row[2]);
      if (!(std::abs(got - value) <= Delta(error_pct, value))) {
        return Mismatch("point " + KeyText(row) + " off its value " +
                        std::to_string(value) + " by more than ε");
      }
    }
    return Status::OK();
  }
  if (result.rows.size() != expected.groups.size()) {
    return Mismatch(std::to_string(result.rows.size()) + " groups, expected " +
                    std::to_string(expected.groups.size()));
  }
  for (const std::vector<query::Cell>& row : result.rows) {
    if (row.empty()) return Mismatch("empty result row");
    std::vector<query::Cell> key(row.begin(), row.end() - 1);
    auto it = expected.groups.find(key);
    if (it == expected.groups.end()) {
      return Mismatch("unexpected group " + KeyText(key));
    }
    MODELARDB_RETURN_NOT_OK(
        CheckAggregate(expected.agg, it->second, error_pct, row.back(),
                       KeyText(key)));
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace modelardb
