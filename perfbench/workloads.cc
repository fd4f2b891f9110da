#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "cluster/cluster.h"
#include "ingest/pipeline.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "oracle.h"
#include "partition/partitioner.h"
#include "query/parser.h"
#include "util/random.h"
#include "util/simd/kernels.h"
#include "util/thread_pool.h"
#include "workload/dataset.h"
#include "workload/queries.h"

namespace modelardb {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Configuration.

struct WorkloadConfig {
  const char* name;
  workload::DatasetKind kind;
  double error_pct;
  int entities;  // EP: turbines; EH: entities per park.
  int parks;     // EH only.
  int64_t rows;  // Sampling instants per series at size 1.0.
  // Ingest rounds in every measured cycle; false ingests once per set-up
  // instead (query_ep).
  bool ingest_rounds;
  double burst_s;  // Query client time per measured cycle.
  bool online;     // A closed-loop S-AGG client runs during every ingest.
};

const WorkloadConfig kWorkloads[] = {
    {"ingest_ep", workload::DatasetKind::kEp, 0.0, 48, 0, 10000, true, 0.4,
     false},
    {"query_ep", workload::DatasetKind::kEp, 1.0, 48, 0, 10000, false, 1.0,
     false},
    {"online_eh", workload::DatasetKind::kEh, 5.0, 4, 8, 25000, true, 0.5,
     true},
};

// Query classes, in reporting order, with the percentile each class's
// `_tail_ms` reports. p90 is the highest that keeps ten samples beyond it
// for the slowest classes in a 20-second run; the fast classes report p95,
// not p99, because on a shared host a stolen-CPU burst covering ~1% of a
// run moves p99 several-fold between runs.
struct ClassInfo {
  const char* name;
  double tail_pct;
};
constexpr ClassInfo kClasses[] = {
    {"sagg", 95.0}, {"lagg", 95.0}, {"lagg_dpv", 90.0},
    {"magg", 90.0}, {"pr", 95.0},
};
constexpr int kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);
constexpr int kSagg = 0;

constexpr int kSetups = 7;   // Set-ups per run; setup_s is their median.
constexpr int kMinCycles = 3;  // Measured cycles per run, at least.
constexpr int kWorkers = 2;
// S-AGG and P/R queries generated per run: enough that their latency
// distributions, and so their medians, barely depend on the seed.
constexpr int kSetSize = 999;
constexpr double kCoverageFloor = 0.9;

// ---------------------------------------------------------------------------
// Small helpers.

double Now() { return static_cast<double>(obs::MonotonicNanos()) * 1e-9; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Nearest-rank percentile: the smallest sample with at least `pct` percent
// of the samples at or below it.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::max<size_t>(rank, 1) - 1];
}

// Samples strictly beyond the nearest-rank `pct` percentile of n samples.
int64_t SamplesBeyond(size_t n, double pct) {
  return static_cast<int64_t>(n) -
         static_cast<int64_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
}

// Length of the union of [begin, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cursor = -1e300;
  for (const auto& [begin, end] : intervals) {
    const double from = std::max(begin, cursor);
    if (end > from) total += end - from;
    cursor = std::max(cursor, end);
  }
  return total;
}

// Counts attempted and failed operations and keeps the first failures.
class Tally {
 public:
  void Record(const std::string& what, const Status& status) {
    ++attempted_;
    if (status.ok()) return;
    ++failed_;
    if (notes_.size() < 5) notes_.push_back(what + ": " + status.ToString());
  }
  void Merge(const Tally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& note : other.notes_) {
      if (notes_.size() < 5) notes_.push_back(note);
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> notes_;
};

// Counter values and histogram sums (in seconds) of the global obs
// registry, summed over labels: a phase's work is the difference of two
// readings.
struct ObsReading {
  std::map<std::string, double> values;

  static ObsReading Take() {
    ObsReading reading;
    for (const obs::MetricSample& sample :
         obs::MetricsRegistry::Global().Snapshot()) {
      if (sample.kind == obs::MetricKind::kCounter) {
        reading.values[sample.name] +=
            static_cast<double>(sample.counter_value);
      } else if (sample.kind == obs::MetricKind::kHistogram) {
        reading.values[sample.name] += sample.histogram.sum_seconds;
      }
    }
    return reading;
  }
  double Since(const ObsReading& before, const std::string& name) const {
    auto get = [&](const ObsReading& r) {
      auto it = r.values.find(name);
      return it == r.values.end() ? 0.0 : it->second;
    };
    return get(*this) - get(before);
  }
};

// ---------------------------------------------------------------------------
// Inputs: materialized rows and a source over them.

struct GroupRows {
  Gid gid = 0;
  size_t width = 0;
  std::vector<Value> values;     // Row-major, stored (scaled) units.
  std::vector<uint8_t> present;  // Row-major; 0 marks a gap.
};

struct Data {
  std::unique_ptr<workload::SyntheticDataset> dataset;
  std::vector<TimeSeriesGroup> groups;
  std::vector<Timestamp> timestamps;
  std::vector<GroupRows> rows;
  int64_t points = 0;
};

// Delivers one group's materialized rows, as a receiver hands over rows
// that have already arrived: no generation happens while ingesting.
class RowSource final : public ingest::GroupRowSource {
 public:
  RowSource(const GroupRows* rows, const std::vector<Timestamp>* timestamps)
      : rows_(rows), timestamps_(timestamps) {}

  Gid gid() const override { return rows_->gid; }

  Result<bool> Next(GroupRow* row) override {
    if (next_ >= timestamps_->size()) return false;
    const size_t begin = next_ * rows_->width;
    const size_t end = begin + rows_->width;
    row->timestamp = (*timestamps_)[next_];
    row->values.assign(rows_->values.begin() + begin,
                       rows_->values.begin() + end);
    row->present.assign(rows_->present.begin() + begin,
                        rows_->present.begin() + end);
    ++next_;
    return true;
  }

 private:
  const GroupRows* rows_;
  const std::vector<Timestamp>* timestamps_;
  size_t next_ = 0;
};

std::vector<std::unique_ptr<ingest::GroupRowSource>> MakeSources(
    const Data& data) {
  std::vector<std::unique_ptr<ingest::GroupRowSource>> sources;
  for (const GroupRows& rows : data.rows) {
    sources.push_back(std::make_unique<RowSource>(&rows, &data.timestamps));
  }
  return sources;
}

struct SetupTimes {
  double generate_s = 0.0;
  double partition_s = 0.0;
  double create_s = 0.0;
};

// Generates the data set's raw values, partitions it with its best hints
// and materializes every group's rows in stored units (value × scaling,
// exactly as the engine's own dataset sources compute them).
Result<Data> Generate(const WorkloadConfig& config, uint64_t seed,
                      int64_t rows, SetupTimes* times) {
  Data data;
  double start = Now();
  data.dataset = std::make_unique<workload::SyntheticDataset>(
      config.kind == workload::DatasetKind::kEp
          ? workload::SyntheticDataset::Ep(config.entities, rows, seed)
          : workload::SyntheticDataset::Eh(config.parks, config.entities,
                                           rows, seed));
  const workload::SyntheticDataset& ds = *data.dataset;
  const int num_series = ds.num_series();
  std::vector<std::vector<Value>> raw(num_series, std::vector<Value>(rows));
  std::vector<std::vector<uint8_t>> present(num_series,
                                            std::vector<uint8_t>(rows));
  for (Tid tid = 1; tid <= num_series; ++tid) {
    for (int64_t row = 0; row < rows; ++row) {
      present[tid - 1][row] = ds.Present(tid, row) ? 1 : 0;
      raw[tid - 1][row] = present[tid - 1][row] ? ds.RawValue(tid, row) : 0;
    }
  }
  data.timestamps.resize(rows);
  for (int64_t row = 0; row < rows; ++row) {
    data.timestamps[row] = ds.TimestampAt(row);
  }
  double generated = Now();

  MODELARDB_ASSIGN_OR_RETURN(
      data.groups, Partitioner::Partition(data.dataset->catalog(),
                                          ds.BestHints()));
  double partitioned = Now();

  for (const TimeSeriesGroup& group : data.groups) {
    GroupRows group_rows;
    group_rows.gid = group.gid;
    group_rows.width = group.tids.size();
    group_rows.values.resize(rows * group_rows.width);
    group_rows.present.resize(rows * group_rows.width);
    for (size_t i = 0; i < group.tids.size(); ++i) {
      const Tid tid = group.tids[i];
      const double scaling = ds.catalog().Get(tid).scaling;
      for (int64_t row = 0; row < rows; ++row) {
        const size_t at = row * group_rows.width + i;
        group_rows.present[at] = present[tid - 1][row];
        group_rows.values[at] =
            present[tid - 1][row]
                ? static_cast<Value>(raw[tid - 1][row] * scaling)
                : 0.0f;
        data.points += present[tid - 1][row];
      }
    }
    data.rows.push_back(std::move(group_rows));
  }
  times->generate_s = (generated - start) + (Now() - partitioned);
  times->partition_s = partitioned - generated;
  return data;
}

const ModelRegistry& Registry() {
  static const ModelRegistry* registry =
      new ModelRegistry(ModelRegistry::Default());
  return *registry;
}

cluster::ClusterConfig EngineConfig(const std::string& root,
                                    double error_pct) {
  cluster::ClusterConfig config;  // Defaults, as users run the engine.
  config.num_workers = kWorkers;
  config.storage_root = root;
  config.error_bound = error_pct == 0.0 ? ErrorBound::Lossless()
                                        : ErrorBound::Relative(error_pct);
  return config;
}

Result<std::unique_ptr<cluster::ClusterEngine>> CreateEngine(
    const Data& data, const std::string& root, double error_pct) {
  return cluster::ClusterEngine::Create(data.dataset->catalog(), data.groups,
                                        &Registry(),
                                        EngineConfig(root, error_pct));
}

// Removes a storage root; a fresh engine then creates it again.
Status ResetRoot(const std::string& root) {
  std::error_code ec;
  fs::remove_all(root, ec);
  if (ec) return Status::IOError("cannot remove " + root + ": " + ec.message());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries and their expected answers.

struct QueryItem {
  std::string sql;
  Expected expected;
};

std::vector<std::vector<QueryItem>> MakeQuerySets(
    const workload::SyntheticDataset& ds, const Oracle& oracle,
    uint64_t seed) {
  using workload::QueryTarget;
  constexpr QueryTarget kSv = QueryTarget::kSegmentView;
  std::vector<std::vector<QueryItem>> sets(kNumClasses);
  for (const auto& spec : workload::MakeSAggSpecs(ds, kSetSize, seed)) {
    sets[0].push_back({workload::ToSql(spec, kSv), oracle.ForAgg(spec)});
  }
  for (const auto& spec : workload::MakeLAggSpecs(ds)) {
    sets[1].push_back({workload::ToSql(spec, kSv), oracle.ForAgg(spec)});
    sets[2].push_back({workload::ToSql(spec, QueryTarget::kDataPointView),
                       oracle.ForAgg(spec)});
  }
  for (bool drill_down : {false, true}) {
    for (const auto& spec : workload::MakeMAggSpecs(ds, drill_down)) {
      sets[3].push_back(
          {workload::ToSql(spec, ds, kSv), oracle.ForMAgg(spec)});
    }
  }
  for (const auto& spec : workload::MakePRSpecs(ds, kSetSize, seed)) {
    sets[4].push_back({workload::ToSql(spec), oracle.ForPr(spec)});
  }
  return sets;
}

Status Check(const QueryItem& item,
             const Result<query::QueryResult>& result) {
  if (!result.ok()) return result.status();
  return CheckAnswer(item.expected, *result);
}

// Per-layer view of one query, taken by TracedExecute.
struct QueryTrace {
  double wall_ms = 0.0;
  double covered_ms = 0.0;  // Wall time inside a timed layer call.
  double parse_ms = 0.0;
  double compile_ms = 0.0;
  double scan_ms = 0.0;  // Slowest worker.
  double skew = 0.0;     // Slowest worker / mean worker.
  double merge_ms = 0.0;
  ScanStats scan;
};

// ClusterEngine::Execute(sql), call for call: ParseQuery, Compile, one
// ExecuteOnWorker task per worker on the engine's pool, MergeFinalize —
// each timed at its boundary.
Result<query::QueryResult> TracedExecute(const cluster::ClusterEngine& engine,
                                         const std::string& sql,
                                         QueryTrace* trace) {
  const double start = Now();
  MODELARDB_ASSIGN_OR_RETURN(query::Query ast, query::ParseQuery(sql));
  const double parsed = Now();
  MODELARDB_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                             engine.query_engine().Compile(ast));
  const double compiled_at = Now();
  const size_t workers = static_cast<size_t>(engine.num_workers());
  std::vector<query::PartialResult> partials(workers);
  std::vector<Status> statuses(workers);
  std::vector<std::pair<double, double>> spans(workers);
  TaskGroup group(engine.pool());
  for (size_t i = 0; i < workers; ++i) {
    group.Submit([&, i] {
      spans[i].first = Now();
      auto partial = engine.ExecuteOnWorker(compiled, static_cast<int>(i));
      spans[i].second = Now();
      if (partial.ok()) {
        partials[i] = std::move(*partial);
      } else {
        statuses[i] = partial.status();
      }
    });
  }
  group.Wait();
  const double scanned = Now();
  for (const Status& status : statuses) MODELARDB_RETURN_NOT_OK(status);
  trace->scan = ScanStats();
  double slowest = 0.0, total = 0.0;
  for (size_t i = 0; i < workers; ++i) {
    trace->scan.Merge(partials[i].scan);
    slowest = std::max(slowest, spans[i].second - spans[i].first);
    total += spans[i].second - spans[i].first;
  }
  Result<query::QueryResult> result =
      engine.query_engine().MergeFinalize(compiled, std::move(partials));
  const double end = Now();
  trace->parse_ms = (parsed - start) * 1e3;
  trace->compile_ms = (compiled_at - parsed) * 1e3;
  trace->scan_ms = slowest * 1e3;
  trace->skew = total > 0.0 ? slowest / (total / workers) : 1.0;
  trace->merge_ms = (end - scanned) * 1e3;
  trace->wall_ms = (end - start) * 1e3;
  trace->covered_ms = trace->parse_ms + trace->compile_ms +
                      UnionLength(spans) * 1e3 + trace->merge_ms;
  return result;
}

// Latencies (and, when traced, layer views) of one query class.
struct ClassSamples {
  std::vector<double> latency_ms;
  std::vector<QueryTrace> traces;
  double busy_s = 0.0;
  size_t next = 0;
  std::vector<size_t> order;  // Seeded permutation of the class's set.
};

std::vector<ClassSamples> NewClassSamples(
    const std::vector<std::vector<QueryItem>>& sets, uint64_t seed) {
  std::vector<ClassSamples> samples(sets.size());
  for (size_t c = 0; c < sets.size(); ++c) {
    Random rng(seed * 31 + c);
    std::vector<size_t>& order = samples[c].order;
    for (size_t i = 0; i < sets[c].size(); ++i) order.push_back(i);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBelow(i)]);
    }
  }
  return samples;
}

// One closed-loop client for `seconds`: the next query goes to the class
// that has had the least busy time so far, so every class gets an equal
// share of the run; within a class, queries follow its seeded order.
void QueryLoop(const cluster::ClusterEngine& engine,
               const std::vector<std::vector<QueryItem>>& sets,
               double seconds, bool traced,
               std::vector<ClassSamples>* samples, Tally* tally) {
  const double deadline = Now() + seconds;
  while (Now() < deadline) {
    size_t c = 0;
    for (size_t k = 1; k < sets.size(); ++k) {
      if ((*samples)[k].busy_s < (*samples)[c].busy_s) c = k;
    }
    ClassSamples& cls = (*samples)[c];
    const QueryItem& item = sets[c][cls.order[cls.next++ % cls.order.size()]];
    QueryTrace trace;
    const double start = Now();
    Result<query::QueryResult> result =
        traced ? TracedExecute(engine, item.sql, &trace)
               : engine.Execute(item.sql);
    const double elapsed = Now() - start;
    cls.busy_s += elapsed;
    cls.latency_ms.push_back(elapsed * 1e3);
    if (traced) cls.traces.push_back(trace);
    tally->Record(item.sql, Check(item, result));
  }
}

// Runs every query of every set once, checking each answer.
void VerifyAll(const cluster::ClusterEngine& engine,
               const std::vector<std::vector<QueryItem>>& sets,
               Tally* tally) {
  for (const std::vector<QueryItem>& set : sets) {
    for (const QueryItem& item : set) {
      tally->Record(item.sql, Check(item, engine.Execute(item.sql)));
    }
  }
}

// ---------------------------------------------------------------------------
// Ingestion.

// Layer times of one traced ingest (thread-seconds where calls run on
// several pool threads).
struct IngestTrace {
  double wall_s = 0.0;
  double covered_s = 0.0;
  double pipeline_self_s = 0.0;  // RunPipeline's own loop: source, routing.
  double core_ingest_s = 0.0;
  int64_t core_ingest_calls = 0;
  double put_s = 0.0;
  int64_t put_calls = 0;
  double core_flush_s = 0.0;
  double store_flush_s = 0.0;
  double flush_self_s = 0.0;  // FlushAll's own share.
};

// RunPipeline followed by its FlushAll, call for call, with every call
// into core (GroupCoordinator::Ingest/Flush) and storage
// (SegmentStore::PutBatch/Flush) timed: one task per worker on the
// engine's pool, micro-batches of 512 rows per source, exactly as the
// pipeline and ClusterEngine::Ingest make them.
Status TracedIngest(cluster::ClusterEngine* engine, const Data& data,
                    IngestTrace* trace) {
  const double start = Now();
  std::vector<std::unique_ptr<ingest::GroupRowSource>> sources =
      MakeSources(data);
  const int workers = engine->num_workers();
  std::vector<std::vector<ingest::GroupRowSource*>> partitions(workers);
  for (const auto& source : sources) {
    partitions[engine->WorkerOf(source->gid())].push_back(source.get());
  }
  std::vector<IngestTrace> per_task(workers);
  std::vector<std::pair<double, double>> spans(workers);
  std::vector<Status> statuses(workers);
  {
    TaskGroup group(engine->pool());
    for (int w = 0; w < workers; ++w) {
      if (partitions[w].empty()) continue;
      group.Submit([&, w] {
        IngestTrace& t = per_task[w];
        spans[w].first = Now();
        cluster::Worker* worker = engine->worker(w);
        std::vector<ingest::GroupRowSource*>& part = partitions[w];
        std::vector<bool> exhausted(part.size(), false);
        size_t remaining = part.size();
        GroupRow row;
        auto run = [&]() -> Status {
          while (remaining > 0) {
            for (size_t i = 0; i < part.size(); ++i) {
              if (exhausted[i]) continue;
              GroupCoordinator* coordinator =
                  worker->coordinator(part[i]->gid());
              for (int b = 0; b < 512; ++b) {
                MODELARDB_ASSIGN_OR_RETURN(bool has_row, part[i]->Next(&row));
                if (!has_row) {
                  exhausted[i] = true;
                  --remaining;
                  break;
                }
                std::vector<Segment> segments;
                const double ingest_start = Now();
                MODELARDB_RETURN_NOT_OK(coordinator->Ingest(row, &segments));
                const double put_start = Now();
                t.core_ingest_s += put_start - ingest_start;
                ++t.core_ingest_calls;
                if (!segments.empty()) {
                  MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(segments));
                  t.put_s += Now() - put_start;
                  ++t.put_calls;
                }
              }
            }
          }
          return Status::OK();
        };
        statuses[w] = run();
        spans[w].second = Now();
        t.pipeline_self_s =
            (spans[w].second - spans[w].first) - t.core_ingest_s - t.put_s;
      });
    }
    group.Wait();
  }
  for (const Status& status : statuses) MODELARDB_RETURN_NOT_OK(status);

  // FlushAll: one task per worker.
  const double flush_start = Now();
  std::vector<IngestTrace> flush_task(workers);
  std::vector<std::pair<double, double>> flush_spans(workers);
  {
    TaskGroup group(engine->pool());
    for (int w = 0; w < workers; ++w) {
      group.Submit([&, w] {
        IngestTrace& t = flush_task[w];
        flush_spans[w].first = Now();
        cluster::Worker* worker = engine->worker(w);
        auto run = [&]() -> Status {
          for (const auto& [gid, coordinator] : worker->coordinators()) {
            std::vector<Segment> segments;
            const double flush_start = Now();
            MODELARDB_RETURN_NOT_OK(coordinator->Flush(&segments));
            const double put_start = Now();
            t.core_flush_s += put_start - flush_start;
            if (!segments.empty()) {
              MODELARDB_RETURN_NOT_OK(worker->store()->PutBatch(segments));
              t.put_s += Now() - put_start;
              ++t.put_calls;
            }
          }
          const double store_start = Now();
          MODELARDB_RETURN_NOT_OK(worker->store()->Flush());
          t.store_flush_s += Now() - store_start;
          return Status::OK();
        };
        statuses[w] = run();
        flush_spans[w].second = Now();
      });
    }
    group.Wait();
  }
  for (const Status& status : statuses) MODELARDB_RETURN_NOT_OK(status);
  const double end = Now();

  *trace = IngestTrace();
  trace->wall_s = end - start;
  trace->flush_self_s = (end - flush_start) - UnionLength(flush_spans);
  for (int w = 0; w < workers; ++w) {
    const IngestTrace& t = per_task[w];
    trace->pipeline_self_s += t.pipeline_self_s;
    trace->core_ingest_s += t.core_ingest_s;
    trace->core_ingest_calls += t.core_ingest_calls;
    trace->put_s += t.put_s + flush_task[w].put_s;
    trace->put_calls += t.put_calls + flush_task[w].put_calls;
    const IngestTrace& f = flush_task[w];
    trace->core_flush_s += f.core_flush_s;
    trace->store_flush_s += f.store_flush_s;
    trace->flush_self_s += (flush_spans[w].second - flush_spans[w].first) -
                           f.core_flush_s - f.put_s - f.store_flush_s;
  }
  trace->covered_s = UnionLength(spans) + UnionLength(flush_spans);
  return Status::OK();
}

// Closed-loop S-AGG client running while an ingest is in progress: every
// query must succeed, and no COUNT may ever decrease.
class OnlineClient {
 public:
  OnlineClient(const cluster::ClusterEngine* engine,
               const std::vector<QueryItem>* items, uint64_t seed)
      : engine_(engine), items_(items), last_counts_(items->size()) {
    Random rng(seed);
    for (size_t i = 0; i < items->size(); ++i) order_.push_back(i);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.NextBelow(i)]);
    }
    thread_ = std::thread([this] { Run(); });
  }

  ~OnlineClient() { Stop(); }
  OnlineClient(const OnlineClient&) = delete;
  OnlineClient& operator=(const OnlineClient&) = delete;

  // Stops the client and waits for its thread.
  void Stop() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const Tally& tally() const { return tally_; }

 private:
  void Run() {
    try {
      size_t next = 0;
      while (!done_.load(std::memory_order_acquire)) {
        const size_t index = order_[next++ % order_.size()];
        const QueryItem& item = (*items_)[index];
        const double start = Now();
        Result<query::QueryResult> result = engine_->Execute(item.sql);
        latency_ms_.push_back((Now() - start) * 1e3);
        tally_.Record("during ingest: " + item.sql,
                      result.ok() ? CheckMonotonic(index, *result)
                                  : result.status());
      }
    } catch (const std::exception& e) {
      tally_.Record("during ingest", Status::Internal(e.what()));
    }
  }

  Status CheckMonotonic(size_t index, const query::QueryResult& result) {
    if ((*items_)[index].expected.agg != 0) return Status::OK();
    std::map<std::vector<query::Cell>, query::Cell> counts;
    for (const std::vector<query::Cell>& row : result.rows) {
      if (row.empty()) return Status::InvalidArgument("empty result row");
      counts[std::vector<query::Cell>(row.begin(), row.end() - 1)] =
          row.back();
    }
    for (const auto& [key, count] : last_counts_[index]) {
      auto it = counts.find(key);
      if (it == counts.end() || query::CellLess(it->second, count)) {
        return Status::InvalidArgument("a COUNT decreased during ingest");
      }
    }
    last_counts_[index] = std::move(counts);
    return Status::OK();
  }

  const cluster::ClusterEngine* engine_;
  const std::vector<QueryItem>* items_;
  std::vector<std::map<std::vector<query::Cell>, query::Cell>> last_counts_;
  std::vector<size_t> order_;
  std::vector<double> latency_ms_;
  Tally tally_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

struct IngestRound {
  double seconds = 0.0;  // First row to durable FlushAll.
  double bytes_per_point = 0.0;
  double create_s = 0.0;
  ingest::IngestReport report;  // Untraced rounds.
  IngestTrace trace;            // Traced rounds.
  std::map<std::string, double> obs;  // Registry deltas over the ingest.
  std::vector<double> online_latency_ms;
  CoordinatorStats coordinators;
};

// One ingest of the whole data set into a fresh root; the engine stays in
// *engine for the phases that follow.
Result<IngestRound> IngestOnce(
    const Data& data, const WorkloadConfig& config, const std::string& root,
    bool traced, const std::vector<QueryItem>* online_items, uint64_t seed,
    Tally* tally, std::unique_ptr<cluster::ClusterEngine>* engine) {
  IngestRound round;
  engine->reset();
  MODELARDB_RETURN_NOT_OK(ResetRoot(root));
  double start = Now();
  MODELARDB_ASSIGN_OR_RETURN(*engine,
                             CreateEngine(data, root, config.error_pct));
  round.create_s = Now() - start;
  std::unique_ptr<OnlineClient> client;
  if (online_items != nullptr) {
    client = std::make_unique<OnlineClient>(engine->get(), online_items, seed);
  }
  const ObsReading before = ObsReading::Take();
  start = Now();
  Status status;
  if (traced) {
    status = TracedIngest(engine->get(), data, &round.trace);
  } else {
    Result<ingest::IngestReport> report =
        ingest::RunPipeline(engine->get(), MakeSources(data), {});
    status = report.status();
    if (report.ok()) round.report = std::move(*report);
  }
  round.seconds = Now() - start;
  if (client != nullptr) {
    client->Stop();
    round.online_latency_ms = client->latency_ms();
    tally->Merge(client->tally());
  }
  const ObsReading after = ObsReading::Take();
  tally->Record("ingest", status);
  MODELARDB_RETURN_NOT_OK(status);
  for (const auto& [name, value] : after.values) {
    round.obs[name] = after.Since(before, name);
  }
  round.bytes_per_point = static_cast<double>((*engine)->DiskBytes()) /
                          static_cast<double>(data.points);
  for (int w = 0; w < (*engine)->num_workers(); ++w) {
    for (const auto& [gid, coordinator] :
         (*engine)->worker(w)->coordinators()) {
      const CoordinatorStats& stats = coordinator->coordinator_stats();
      round.coordinators.splits += stats.splits;
      round.coordinators.joins += stats.joins;
      round.coordinators.join_attempts += stats.join_attempts;
    }
  }
  return round;
}

// ---------------------------------------------------------------------------
// The run and its reports.

// Everything one run measured.
struct RunRecord {
  int64_t points = 0;
  std::vector<double> setup_s, generate_s, partition_s, create_s;
  std::vector<IngestRound> plain_rounds, traced_rounds;
  std::vector<ClassSamples> plain, traced;
  std::vector<double> reopen_s, open_s, replayed;
  double simd_values = 0.0, scalar_values = 0.0;  // Traced bursts.
};

// Set-up, repeated: generation, partitioning, engine creation and (without
// ingest rounds) the pre-ingest. The last set-up's data and engine remain.
Status SetUp(const WorkloadConfig& config, const Options& options,
             int64_t rows, const std::string& root, Data* data,
             std::unique_ptr<cluster::ClusterEngine>* engine, RunRecord* run,
             Tally* tally) {
  for (int s = 0; s < kSetups; ++s) {
    engine->reset();
    MODELARDB_RETURN_NOT_OK(ResetRoot(root));
    const double start = Now();
    SetupTimes times;
    MODELARDB_ASSIGN_OR_RETURN(*data,
                               Generate(config, options.seed, rows, &times));
    double setup = Now() - start;
    if (!config.ingest_rounds) {
      // The pre-ingest creates its own engine on the fresh root.
      const bool traced = options.trace && s % 2 == 1;
      MODELARDB_ASSIGN_OR_RETURN(
          IngestRound round, IngestOnce(*data, config, root, traced, nullptr,
                                        options.seed, tally, engine));
      times.create_s = round.create_s;
      setup += round.create_s + round.seconds;
      (traced ? run->traced_rounds : run->plain_rounds)
          .push_back(std::move(round));
    } else {
      const double create_start = Now();
      MODELARDB_ASSIGN_OR_RETURN(*engine,
                                 CreateEngine(*data, root, config.error_pct));
      times.create_s = Now() - create_start;
      setup += times.create_s;
    }
    run->setup_s.push_back(setup);
    run->generate_s.push_back(times.generate_s);
    run->partition_s.push_back(times.partition_s);
    run->create_s.push_back(times.create_s);
  }
  run->points = data->points;
  return Status::OK();
}

// The measured cycles, until --seconds have passed: an ingest round into a
// fresh root (unless the set-up ingested), a reopen of the root (Create
// replays it, then the first S-AGG answers), and a burst of the closed-loop
// query client on the recovered engine, which writes nothing. Interleaving
// the phases lets every metric sample the whole run. In a traced run,
// plain and traced cycles alternate.
Status MeasureCycles(const WorkloadConfig& config, const Options& options,
                     const Data& data, const std::string& root,
                     const std::vector<std::vector<QueryItem>>& sets,
                     std::unique_ptr<cluster::ClusterEngine>* engine,
                     RunRecord* run, Tally* tally) {
  run->plain = NewClassSamples(sets, options.seed);
  run->traced = NewClassSamples(sets, options.seed);
  const double deadline = Now() + options.seconds;
  const int min_cycles = options.trace ? 2 * kMinCycles : kMinCycles;
  for (int cycle = 0; cycle < min_cycles || Now() < deadline; ++cycle) {
    const bool traced = options.trace && cycle % 2 == 1;
    if (config.ingest_rounds) {
      MODELARDB_ASSIGN_OR_RETURN(
          IngestRound round,
          IngestOnce(data, config, root, traced,
                     config.online ? &sets[kSagg] : nullptr,
                     options.seed + cycle, tally, engine));
      (traced ? run->traced_rounds : run->plain_rounds)
          .push_back(std::move(round));
    }

    engine->reset();
    const ObsReading before_open = ObsReading::Take();
    const double start = Now();
    MODELARDB_ASSIGN_OR_RETURN(*engine,
                               CreateEngine(data, root, config.error_pct));
    const double opened = Now();
    const QueryItem& first = sets[kSagg][0];
    const Status status = Check(first, (*engine)->Execute(first.sql));
    run->reopen_s.push_back(Now() - start);
    run->open_s.push_back(opened - start);
    run->replayed.push_back(ObsReading::Take().Since(
        before_open, obs::kRecoverySegmentsReplayedTotal));
    tally->Record("first query after reopen: " + first.sql, status);

    const ObsReading before_burst = ObsReading::Take();
    QueryLoop(**engine, sets, config.burst_s, traced,
              traced ? &run->traced : &run->plain, tally);
    if (traced) {
      const ObsReading after_burst = ObsReading::Take();
      run->simd_values +=
          after_burst.Since(before_burst, obs::kDecodeValuesSimdTotal);
      run->scalar_values +=
          after_burst.Since(before_burst, obs::kDecodeValuesScalarTotal);
    }
  }
  return Status::OK();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::vector<Metric> EndToEndMetrics(const WorkloadConfig& config,
                                    const RunRecord& run,
                                    const Outcome& outcome,
                                    std::vector<std::string>* notes) {
  std::vector<Metric> metrics;
  // Ingest rate over all rounds of the run: points per second of ingest.
  double ingest_seconds = 0.0;
  std::vector<double> bytes, online_ms;
  for (const IngestRound& round : run.plain_rounds) {
    ingest_seconds += round.seconds;
    bytes.push_back(round.bytes_per_point);
    online_ms.insert(online_ms.end(), round.online_latency_ms.begin(),
                     round.online_latency_ms.end());
  }
  metrics.push_back({"setup_s", Median(run.setup_s), "s"});
  metrics.push_back(
      {"ingest_pts_per_s",
       Ratio(static_cast<double>(run.points * run.plain_rounds.size()),
             ingest_seconds),
       "points/s"});
  metrics.push_back({"bytes_per_point", Median(bytes), "bytes/point"});
  metrics.push_back({"reopen_s", Median(run.reopen_s), "s"});
  metrics.push_back(
      {"ok_ratio",
       Ratio(static_cast<double>(outcome.attempted - outcome.failed),
             static_cast<double>(outcome.attempted)),
       "ratio"});
  std::string counts = "samples:";
  for (int c = 0; c < kNumClasses; ++c) {
    // On online_eh the S-AGG latencies are the ones measured while the
    // ingest runs (the O-n scenario); elsewhere the bursts'.
    const std::vector<double>& ms =
        config.online && c == kSagg ? online_ms : run.plain[c].latency_ms;
    const std::string name = kClasses[c].name;
    const double pct = kClasses[c].tail_pct;
    counts += " " + name + "=" + std::to_string(ms.size());
    metrics.push_back({name + "_p50_ms", Median(ms), "ms"});
    metrics.push_back({name + "_tail_ms", Percentile(ms, pct), "ms"});
    if (SamplesBeyond(ms.size(), pct) < 10) {
      notes->push_back("warning: " + name + "_tail_ms has fewer than 10 " +
                       "samples beyond p" +
                       std::to_string(static_cast<int>(pct)) + " (" +
                       std::to_string(ms.size()) + " samples)");
    }
  }
  notes->push_back(counts + " ingest_rounds=" +
                   std::to_string(run.plain_rounds.size()) +
                   " reopens=" + std::to_string(run.reopen_s.size()));
  return metrics;
}

double ObsMedian(const std::vector<IngestRound>& rounds,
                 const std::string& name) {
  std::vector<double> values;
  for (const IngestRound& round : rounds) {
    auto it = round.obs.find(name);
    values.push_back(it == round.obs.end() ? 0.0 : it->second);
  }
  return Median(values);
}

template <typename F>
double RoundMedian(const std::vector<IngestRound>& rounds, F field) {
  std::vector<double> values;
  for (const IngestRound& round : rounds) values.push_back(field(round));
  return Median(values);
}

template <typename F>
double TraceMedian(const std::vector<QueryTrace>& traces, F field) {
  std::vector<double> values;
  for (const QueryTrace& trace : traces) values.push_back(field(trace));
  return Median(values);
}

std::vector<Metric> PerLayerMetrics(const RunRecord& run,
                                    std::vector<std::string>* notes) {
  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, value, unit});
  };
  add("workload.generate_s", Median(run.generate_s), "s");
  add("partition.partition_s", Median(run.partition_s), "s");
  add("cluster.create_s", Median(run.create_s), "s");

  // Ingest side: medians over the traced ingests.
  const std::vector<IngestRound>& traced = run.traced_rounds;
  auto ingest = [&](const char* name, const char* unit, auto field) {
    add(name, RoundMedian(traced, [&](const IngestRound& round) {
          return static_cast<double>(field(round.trace));
        }),
        unit);
  };
  ingest("ingest.self_s", "s",
         [](const IngestTrace& t) { return t.pipeline_self_s; });
  ingest("core.ingest_s", "s",
         [](const IngestTrace& t) { return t.core_ingest_s; });
  ingest("core.ingest_calls", "count",
         [](const IngestTrace& t) { return t.core_ingest_calls; });
  ingest("core.flush_s", "s",
         [](const IngestTrace& t) { return t.core_flush_s; });
  ingest("storage.put_s", "s", [](const IngestTrace& t) { return t.put_s; });
  ingest("storage.put_calls", "count",
         [](const IngestTrace& t) { return t.put_calls; });
  ingest("storage.flush_s", "s",
         [](const IngestTrace& t) { return t.store_flush_s; });
  ingest("cluster.flush_s", "s",
         [](const IngestTrace& t) { return t.flush_self_s; });

  // Model mix and coordinator behaviour, from an untraced ingest.
  const IngestRound& plain = run.plain_rounds.back();
  int64_t segments = 0, model_points = 0;
  for (const auto& [model, n] : plain.report.segments_per_model) {
    segments += n;
  }
  for (const auto& [model, n] : plain.report.points_per_model) {
    model_points += n;
  }
  add("core.points_per_segment",
      Ratio(static_cast<double>(plain.report.data_points),
            static_cast<double>(segments)),
      "points");
  for (const char* model : {"pmc_mean", "swing", "gorilla"}) {
    auto it = plain.report.points_per_model.find(model);
    const int64_t n =
        it == plain.report.points_per_model.end() ? 0 : it->second;
    add(std::string("core.points_share.") + model,
        Ratio(static_cast<double>(n), static_cast<double>(model_points)),
        "ratio");
  }
  // The ratio is 0 when no join was attempted.
  add("core.splits", static_cast<double>(plain.coordinators.splits), "count");
  add("core.joins", static_cast<double>(plain.coordinators.joins), "count");
  add("core.join_success_ratio",
      Ratio(static_cast<double>(plain.coordinators.joins),
            static_cast<double>(plain.coordinators.join_attempts)),
      "ratio");

  // Registry deltas over the traced ingests.
  add("storage.wal_bytes_per_point",
      ObsMedian(traced, obs::kWalBytesTotal) /
          static_cast<double>(run.points),
      "bytes/point");
  add("storage.wal_fsyncs", ObsMedian(traced, obs::kWalFsyncsTotal), "count");
  add("storage.wal_sync_s", ObsMedian(traced, obs::kWalSyncSeconds), "s");
  add("storage.block_rebuilds",
      ObsMedian(traced, obs::kStoreBlockRebuildsTotal), "count");
  add("storage.cow_copies", ObsMedian(traced, obs::kStoreCowCopiesTotal),
      "count");
  add("util.pool_tasks", ObsMedian(traced, obs::kPoolTasksTotal), "count");
  add("util.pool_task_s", ObsMedian(traced, obs::kPoolTaskSeconds), "s");
  add("storage.open_s", Median(run.open_s), "s");
  add("storage.segments_replayed", Median(run.replayed), "count");

  // Query side: per-query medians of each class's traced queries.
  double covered_s = 0.0, wall_s = 0.0;
  double traced_query_ms = 0.0, plain_query_ms = 0.0;
  for (int c = 0; c < kNumClasses; ++c) {
    const std::vector<QueryTrace>& traces = run.traced[c].traces;
    const std::string suffix = std::string(".") + kClasses[c].name;
    auto query = [&](const char* name, const char* unit, auto field) {
      add(name + suffix, TraceMedian(traces, [&](const QueryTrace& t) {
            return static_cast<double>(field(t));
          }),
          unit);
    };
    query("query.parse_ms", "ms", [](const QueryTrace& t) {
      return t.parse_ms;
    });
    query("query.compile_ms", "ms", [](const QueryTrace& t) {
      return t.compile_ms;
    });
    query("query.merge_ms", "ms", [](const QueryTrace& t) {
      return t.merge_ms;
    });
    query("cluster.scan_ms", "ms", [](const QueryTrace& t) {
      return t.scan_ms;
    });
    query("cluster.worker_skew", "ratio", [](const QueryTrace& t) {
      return t.skew;
    });
    query("storage.blocks_skipped", "count", [](const QueryTrace& t) {
      return t.scan.blocks_skipped;
    });
    query("storage.blocks_summarized", "count", [](const QueryTrace& t) {
      return t.scan.blocks_summarized;
    });
    query("storage.blocks_scanned", "count", [](const QueryTrace& t) {
      return t.scan.blocks_scanned;
    });
    query("storage.segments_scanned", "count", [](const QueryTrace& t) {
      return t.scan.segments_scanned;
    });
    query("storage.index_useful_ratio", "ratio", [](const QueryTrace& t) {
      const double useful = static_cast<double>(t.scan.blocks_skipped +
                                                t.scan.blocks_summarized);
      return Ratio(useful,
                   useful + static_cast<double>(t.scan.blocks_scanned));
    });
    query("query.segments_decoded", "count", [](const QueryTrace& t) {
      return t.scan.segments_decoded;
    });
    query("query.bytes_decoded", "bytes", [](const QueryTrace& t) {
      return t.scan.bytes_decoded;
    });
    traced_query_ms += Median(run.traced[c].latency_ms);
    plain_query_ms += Median(run.plain[c].latency_ms);
    for (const QueryTrace& t : traces) {
      covered_s += t.covered_ms * 1e-3;
      wall_s += t.wall_ms * 1e-3;
    }
  }
  add("util.simd_value_share",
      Ratio(run.simd_values, run.simd_values + run.scalar_values), "ratio");

  // Coverage: the share of traced wall time spent inside a timed call.
  // Overhead: traced over plain wall time of the same ingests and queries.
  std::vector<double> plain_ingest_s;
  for (const IngestRound& round : run.plain_rounds) {
    plain_ingest_s.push_back(round.seconds);
  }
  for (const IngestRound& round : traced) {
    covered_s += round.trace.covered_s;
    wall_s += round.trace.wall_s;
  }
  const double coverage = Ratio(covered_s, wall_s);
  add("trace.coverage", coverage, "ratio");
  if (coverage < kCoverageFloor) {
    notes->push_back("warning: trace coverage " + std::to_string(coverage) +
                     " is below " + std::to_string(kCoverageFloor));
  }
  const double traced_ingest_s = RoundMedian(
      traced, [](const IngestRound& round) { return round.trace.wall_s; });
  add("trace.overhead",
      Ratio(traced_ingest_s + traced_query_ms * 1e-3,
            Median(plain_ingest_s) + plain_query_ms * 1e-3) -
          1.0,
      "ratio");
  return metrics;
}

std::vector<std::pair<std::string, std::string>> Fingerprint(
    const WorkloadConfig& config, int64_t rows, int64_t points) {
  const cluster::ClusterConfig defaults;
  const char* force_scalar = std::getenv("MODELARDB_FORCE_SCALAR");
  const WalSyncPolicy wal = SegmentStoreOptions().wal_sync_policy;
  const char* wal_name = wal == WalSyncPolicy::kEveryBlock ? "every_block"
                         : wal == WalSyncPolicy::kEveryNBlocks
                             ? "every_n_blocks"
                             : "none";
  return {
      {"simd_tier", simd::TierName(simd::ActiveTier())},
      {"force_scalar", force_scalar != nullptr ? force_scalar : "unset"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"obs_enabled", obs::Enabled() ? "true" : "false"},
      {"wal_sync_policy", wal_name},
      {"pool_threads", std::to_string(ThreadPool::Shared()->num_threads())},
      {"workers", std::to_string(kWorkers)},
      {"bulk_write_size", std::to_string(defaults.bulk_write_size)},
      {"index_block_size", std::to_string(defaults.index_block_size)},
      {"error_pct", std::to_string(config.error_pct)},
      {"rows_per_series", std::to_string(rows)},
      {"data_points", std::to_string(points)},
  };
}

}  // namespace

Result<Outcome> RunWorkload(const Options& options) {
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& candidate : kWorkloads) {
    if (options.workload == candidate.name) config = &candidate;
  }
  if (config == nullptr) {
    return Status::InvalidArgument("unknown workload " + options.workload);
  }
  const int64_t rows = std::max<int64_t>(
      1000, static_cast<int64_t>(static_cast<double>(config->rows) *
                                 options.size));
  const std::string root = options.work_dir + "/" + config->name + "-root";

  Tally tally;
  RunRecord run;
  Data data;
  std::unique_ptr<cluster::ClusterEngine> engine;
  MODELARDB_RETURN_NOT_OK(
      SetUp(*config, options, rows, root, &data, &engine, &run, &tally));
  // Reference answers, outside every timed region.
  const Oracle oracle(data.dataset.get(), config->error_pct);
  const std::vector<std::vector<QueryItem>> sets =
      MakeQuerySets(*data.dataset, oracle, options.seed);
  MODELARDB_RETURN_NOT_OK(MeasureCycles(*config, options, data, root, sets,
                                        &engine, &run, &tally));
  // Every query set once more against the recovered engine.
  VerifyAll(*engine, sets, &tally);
  engine.reset();
  MODELARDB_RETURN_NOT_OK(ResetRoot(root));

  Outcome outcome;
  outcome.attempted = tally.attempted();
  outcome.failed = tally.failed();
  outcome.notes = tally.notes();
  outcome.fingerprint = Fingerprint(*config, rows, data.points);
  outcome.metrics = options.trace
                        ? PerLayerMetrics(run, &outcome.notes)
                        : EndToEndMetrics(*config, run, outcome,
                                          &outcome.notes);
  return outcome;
}

}  // namespace perfbench
}  // namespace modelardb
