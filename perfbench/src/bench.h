#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file bench.h
/// \brief Shared types of the serving benchmark: workload shapes, the
/// generated corpus, top-1 answers for the correctness gate, and the
/// results of the untraced service phase and the traced replay.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "probes.h"
#include "service/request.h"
#include "service/service_stats.h"
#include "stats.h"
#include "streams.h"

namespace perfbench {

namespace core = templar::core;
namespace datasets = templar::datasets;
namespace graph = templar::graph;
namespace nlidb = templar::nlidb;
namespace service = templar::service;

/// \brief Command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test-only: alter one served top-1 so the correctness gate must fail.
  bool corrupt_top1 = false;
  /// Trace files and replication directories go here.
  std::string out_dir = ".bench_build/perfbench-out";
};

/// \brief Closed-loop reader threads: the hardware threads of the 4-core
/// machines the benchmark was built on.
constexpr size_t kReaders = 4;
/// \brief Length of the windows the read timings are taken over.
constexpr double kWindowSeconds = 0.5;
/// \brief Delta-log records between compactions of a replicated tenant:
/// rarer than 1% of the probe's appends, so a compaction's fsync stays out
/// of the probe's p99.
constexpr uint64_t kCompactAfterRecords = 500;

/// \brief What one named workload runs. Both serve the mas, imdb and yelp
/// tenants from one host.
struct WorkloadShape {
  std::string name;
  /// false: readers walk seeded laps over the items from a shared cursor,
  /// Translate only. true: Zipf(1) item popularity and the NLIDB op mix.
  bool zipf_mix = false;
  /// Host-wide entry budget of each of the three result caches.
  size_t cache_budget = 0;
  /// Tenants replicate through delta logs (fsync off).
  bool replicated = false;
};

/// \brief Looks up `cold` or `warm`; nullopt otherwise.
std::optional<WorkloadShape> ShapeFor(const std::string& name);

/// \brief One registered tenant and the dataset it serves.
struct Tenant {
  std::string id;
  datasets::Dataset dataset;
  /// One append batch per statement of the dataset's own log.
  std::vector<std::vector<std::string>> batches;
};

/// \brief One distinct benchmark question with its three prebuilt requests.
struct Item {
  size_t tenant = 0;
  size_t query = 0;  ///< Index in the tenant's dataset.benchmark.
  service::QueryRequest translate;
  service::QueryRequest map_only;
  service::QueryRequest joins_only;  ///< Gold FROM bag.
  /// The gold bag has a join path (JoinsOnly enters the mix only then).
  bool joinable = false;

  const service::QueryRequest& Request(Op op) const {
    return op == Op::kTranslate ? translate
           : op == Op::kMapOnly ? map_only
                                : joins_only;
  }
};

struct Corpus {
  std::vector<Tenant> tenants;
  std::vector<Item> items;
};

/// \brief Builds the three datasets (at their default seeds), their items
/// and append batches.
Corpus BuildCorpus();

/// \brief Closed-loop append batches after the reads, in rounds of 1000
/// (enough for a p99 with ten samples beyond it).
constexpr size_t kAppendProbeBatches = 20000;
constexpr size_t kAppendProbeRounds = 20;

/// \brief The i-th append probe batch; `tenant` receives its tenant index.
const std::vector<std::string>& ProbeBatch(const Corpus& corpus, size_t i,
                                           size_t* tenant);

/// \brief One reader's request sequence. `cold` readers share `cursor`
/// over one seeded LapSequence; Zipf readers draw from their own seeded
/// generator over a fixed popularity order. The service run and the traced
/// replay walk identical sequences.
class RequestStream {
 public:
  RequestStream(const WorkloadShape& shape, const Corpus& corpus,
                uint64_t seed, size_t client, std::atomic<uint64_t>* cursor);
  /// Next (item index, operation).
  std::pair<size_t, Op> Next();

 private:
  const Corpus* corpus_;
  std::optional<LapSequence> laps_;
  LapSequence::Cache lap_cache_;
  std::atomic<uint64_t>* cursor_;
  std::optional<ZipfSampler> zipf_;
  SplitMix64 rng_;
};

/// \brief The top-ranked answer of one response, kept for comparison.
struct TopOne {
  std::optional<nlidb::Translation> translation;
  std::optional<core::Configuration> configuration;
  std::optional<graph::JoinPath> join_path;
  uint64_t signature = 0;  ///< Hash of the answer's identity.
};

/// \brief Extracts `response`'s top-1 for `op`; nullopt when it is empty.
std::optional<TopOne> MakeTopOne(Op op, const service::QueryResponse& response);
/// \brief Identity of a top-1 answer, scores left out: the SQL text and
/// tie flag of a translation, the keyword->fragment choices of a
/// configuration, the relations and edges of a join path.
uint64_t TranslationSignature(const nlidb::Translation& translation);
uint64_t ConfigurationSignature(const core::Configuration& configuration);
uint64_t JoinPathSignature(const graph::JoinPath& join_path);
/// \brief True when `response`'s top-1 has the identity of `expected`.
bool SameTopOne(Op op, const service::QueryResponse& response,
                const TopOne& expected);

/// \brief Results of the untraced run against the ServiceHost.
struct ServiceResult {
  std::vector<double> setup_samples_s;

  // Reads.
  double elapsed_s = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;     ///< Non-OK status.
  uint64_t incorrect = 0;  ///< Top-1 differs from the item's answer.
  WindowedLatency reads{0.5};
  std::array<uint64_t, 3> served{};  ///< computed, cache, coalesced.
  double hit_us_sum = 0;
  uint64_t hit_count = 0;
  double overhead_us_sum = 0;
  uint64_t overhead_count = 0;
  service::ServiceStats stats;  ///< Counter deltas over the reads.
  RusageSample usage;  ///< Deltas over the reads; max_rss_kb is the peak.

  // The closed-loop append probe after the reads.
  std::vector<std::vector<double>> append_rounds_us;  ///< Each sorted.
  uint64_t appends_attempted = 0;
  uint64_t appends_failed = 0;
  uint64_t appended_sql_bytes = 0;
  int64_t written_bytes = 0;  ///< /proc/self/io wchar over the probe.
  int64_t compactions = 0;
  service::ServiceStats probe_stats;  ///< Counter deltas over the probe.

  // Correctness gate inputs.
  double fq_accuracy = 0;
  double kw_accuracy = 0;
  uint64_t reference_ops = 0;
  uint64_t reference_failures = 0;
  /// Signature of every item's answer per operation.
  std::vector<std::array<std::optional<uint64_t>, kOpCount>> answers;
};

/// \brief Registers the tenants, runs the reference pass, the timed reads,
/// then the append probe.
ServiceResult RunService(const Options& options, const WorkloadShape& shape,
                         Corpus* corpus);

/// \brief Per-request layer totals of one tenant (or all tenants).
struct LayerTotals {
  uint64_t requests = 0;  ///< Replayed Translate requests.
  double pipeline_ns = 0;
  double untraced_pipeline_ns = 0;
  double cands_ns = 0;
  double prune_ns = 0;
  double map_ns = 0;
  double joins_ns = 0;
  double assemble_ns = 0;
  double similarity_ns = 0;
  uint64_t similarity_calls = 0;
  uint64_t keywords = 0;
  uint64_t candidates = 0;
  uint64_t configurations = 0;
  uint64_t infer_calls = 0;
  uint64_t distinct_bags = 0;

  void Add(const LayerTotals& other);
};

struct ReplayResult {
  std::vector<LayerTotals> per_tenant;
  LayerTotals all;
  uint64_t entries = 0;  ///< Appended log entries replayed.
  double parse_ns = 0;
  double add_ns = 0;
  uint64_t replayed = 0;   ///< Read requests replayed.
  uint64_t compared = 0;   ///< Replayed answers checked against the service.
  uint64_t mismatched = 0;
  uint64_t failed = 0;
  std::string trace_path;
  /// Self time per layer over every span, for the printed breakdown.
  std::array<double, 16> self_ns{};
  std::array<uint64_t, 16> span_count{};
};

/// \brief Replays the workload's stream stage by stage on standalone
/// core::Templar instances with spans around each library call.
ReplayResult RunReplay(const Options& options, const WorkloadShape& shape,
                       const Corpus& corpus, const ServiceResult& service);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
