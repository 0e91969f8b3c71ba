// The traced replay: standalone core::Templar instances, built exactly like
// the tenants', driven with the service run's streams and client count.
// Spans are recorded here, around calls into the library's public
// functions; the pipeline's own stage times come from its public
// PipelineHooks::timings; similarity calls are counted and timed through a
// SimilarityModel decorator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "bench.h"
#include "core/templar.h"
#include "embed/similarity_model.h"
#include "nlidb/nlidb.h"
#include "spans.h"
#include "sql/parser.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace embed = templar::embed;

namespace {

struct SimilarityCounters {
  uint64_t calls = 0;
  int64_t ns = 0;
};
thread_local SimilarityCounters t_similarity;

/// Counts and times every similarity call on the calling thread.
class TracedSimilarity : public embed::SimilarityModel {
 public:
  explicit TracedSimilarity(const embed::SimilarityModel* inner)
      : inner_(inner) {}

  double WordSimilarity(std::string_view a, std::string_view b) const override {
    const int64_t start = NowNs();
    const double value = inner_->WordSimilarity(a, b);
    t_similarity.ns += NowNs() - start;
    ++t_similarity.calls;
    return value;
  }

  double PhraseSimilarity(std::string_view a,
                          std::string_view b) const override {
    const int64_t start = NowNs();
    const double value = inner_->PhraseSimilarity(a, b);
    t_similarity.ns += NowNs() - start;
    ++t_similarity.calls;
    return value;
  }

 private:
  const embed::SimilarityModel* inner_;
};

/// One tenant's standalone engines: `traced` runs under spans with the
/// decorated model; `untraced` runs the same calls bare, for the overhead.
struct Engines {
  std::unique_ptr<TracedSimilarity> model;
  std::unique_ptr<core::Templar> traced;
  std::unique_ptr<core::Templar> untraced;
};

struct Client {
  explicit Client(size_t tenants) : totals(tenants) {}
  SpanBuffer spans{1 << 16};
  std::vector<Op> request_ops;  ///< Indexed by request sequence number.
  std::vector<LayerTotals> totals;
  uint64_t replayed = 0;
  uint64_t compared = 0;
  uint64_t mismatched = 0;
  uint64_t failed = 0;
};

constexpr int kRequestShift = 40;

uint64_t NextRequestId(Client* client, size_t index, Op op) {
  client->request_ops.push_back(op);
  return (static_cast<uint64_t>(index + 1) << kRequestShift) |
         (client->request_ops.size() - 1);
}

/// KEYWORDCANDS and SCOREANDPRUNE per keyword, timed apart as MAPKEYWORDS
/// runs them internally.
void ReplayMapStages(const core::Templar& templar,
                     const templar::nlq::ParsedNlq& parse, SpanBuffer* spans,
                     uint64_t id, uint8_t tenant, LayerTotals* totals) {
  const core::KeywordMapper& mapper = templar.keyword_mapper();
  const uint64_t cap = mapper.options().max_configurations;
  uint64_t product = 1;
  for (const auto& keyword : parse.keywords) {
    std::vector<core::CandidateMapping> candidates;
    {
      ScopedSpan span(spans, id, Layer::kKeywordCands, tenant);
      candidates = mapper.KeywordCands(keyword);
    }
    totals->candidates += candidates.size();
    ++totals->keywords;
    std::vector<core::CandidateMapping> pruned;
    {
      ScopedSpan span(spans, id, Layer::kScoreAndPrune, tenant);
      pruned = mapper.ScoreAndPrune(keyword, std::move(candidates));
    }
    product = std::min<uint64_t>(cap, product * std::max<size_t>(1, pruned.size()));
  }
  totals->configurations += product;
}

/// Records the pipeline's stage times, as PipelineHooks::timings reports
/// them, as consecutive children of the pipeline span `pipeline`.
void AddStageSpans(SpanBuffer* spans, int32_t pipeline, uint64_t id,
                   uint8_t tenant, const nlidb::PipelineTimings& timings) {
  int64_t at = spans->spans()[static_cast<size_t>(pipeline)].start_ns;
  const std::pair<Layer, std::chrono::microseconds> stages[] = {
      {Layer::kMapKeywords, timings.map},
      {Layer::kInferJoins, timings.joins},
      {Layer::kAssemble, timings.assemble}};
  for (const auto& [layer, duration] : stages) {
    const int64_t end = at + duration.count() * 1000;
    spans->Add(id, pipeline, layer, tenant, at, end);
    at = end;
  }
}

/// True when `signature` is the service's answer to (`index`, `op`).
bool MatchesService(const ServiceResult& service, size_t index, Op op,
                    uint64_t signature, Client* client) {
  ++client->compared;
  const auto& expected = service.answers[index][static_cast<size_t>(op)];
  return expected.has_value() && *expected == signature;
}

void ReplayRequest(const Corpus& corpus, const std::vector<Engines>& engines,
                   const ServiceResult& service, size_t index, Op op,
                   size_t client_index, Client* client) {
  const Item& item = corpus.items[index];
  const uint8_t tenant = static_cast<uint8_t>(item.tenant);
  const Engines& engine = engines[item.tenant];
  const uint64_t id = NextRequestId(client, client_index, op);
  const templar::nlq::ParsedNlq& parse = item.translate.nlq;
  SpanBuffer* spans = &client->spans;
  ++client->replayed;

  if (op == Op::kMapOnly) {
    ScopedSpan root(spans, id, Layer::kRequest, tenant);
    // Per-request totals cover Translate requests only.
    LayerTotals unused;
    ReplayMapStages(*engine.traced, parse, spans, id, tenant, &unused);
    templar::Result<std::vector<core::Configuration>> configs =
        templar::Status::Internal("unset");
    {
      ScopedSpan span(spans, id, Layer::kMapKeywords, tenant);
      configs = engine.traced->MapKeywords(parse);
    }
    if (!configs.ok() || configs->empty()) {
      ++client->failed;
      return;
    }
    if (!MatchesService(service, index, op,
                        ConfigurationSignature(configs->front()), client)) {
      ++client->mismatched;
    }
    return;
  }
  if (op == Op::kJoinsOnly) {
    ScopedSpan root(spans, id, Layer::kRequest, tenant);
    templar::Result<std::vector<templar::graph::JoinPath>> paths =
        templar::Status::Internal("unset");
    {
      ScopedSpan span(spans, id, Layer::kInferJoins, tenant);
      paths = engine.traced->InferJoins(item.joins_only.relation_bag);
    }
    if (!paths.ok() || paths->empty()) {
      ++client->failed;
      return;
    }
    if (!MatchesService(service, index, op, JoinPathSignature(paths->front()),
                        client)) {
      ++client->mismatched;
    }
    return;
  }

  LayerTotals& totals = client->totals[item.tenant];
  // The untraced run: the same library call on the bare model, no spans.
  // It goes first on every other request, so that neither run always finds
  // the caches the other one warmed.
  templar::Result<std::vector<nlidb::Translation>> untraced =
      templar::Status::Internal("unset");
  auto run_untraced = [&] {
    const int64_t start = NowNs();
    untraced = nlidb::TranslateAllWithTemplar(*engine.untraced, parse);
    totals.untraced_pipeline_ns += static_cast<double>(NowNs() - start);
  };
  const bool untraced_first = totals.requests % 2 == 0;
  if (untraced_first) run_untraced();

  nlidb::PipelineTimings timings;
  nlidb::PipelineHooks hooks;
  hooks.timings = &timings;
  templar::Result<std::vector<nlidb::Translation>> traced =
      templar::Status::Internal("unset");
  {
    ScopedSpan root(spans, id, Layer::kRequest, tenant);
    const SimilarityCounters before = t_similarity;
    int32_t pipeline = -1;
    {
      ScopedSpan span(spans, id, Layer::kPipeline, tenant);
      pipeline = span.index();
      traced = nlidb::TranslateAllWithTemplar(*engine.traced, parse, hooks);
    }
    AddStageSpans(spans, pipeline, id, tenant, timings);
    totals.similarity_calls += t_similarity.calls - before.calls;
    totals.similarity_ns += static_cast<double>(t_similarity.ns - before.ns);
    ++totals.requests;
  }
  if (!untraced_first) run_untraced();

  {
    // KEYWORDCANDS and SCOREANDPRUNE apart, and the configurations
    // MAPKEYWORDS returns: the pipeline runs one INFERJOINS per
    // configuration.
    ScopedSpan replay(spans, id, Layer::kReplay, tenant);
    ReplayMapStages(*engine.traced, parse, spans, id, tenant, &totals);
    const auto configs = engine.traced->MapKeywords(parse);
    if (configs.ok()) {
      std::set<std::vector<std::string>> bags;
      for (const auto& config : *configs) bags.insert(config.RelationBag());
      totals.infer_calls += configs->size();
      totals.distinct_bags += bags.size();
    }
  }
  if (!traced.ok() || traced->empty() || !untraced.ok() || untraced->empty()) {
    ++client->failed;
    return;
  }
  const uint64_t signature = TranslationSignature(traced->front());
  if (TranslationSignature(untraced->front()) != signature ||
      !MatchesService(service, index, op, signature, client)) {
    ++client->mismatched;
  }
}

}  // namespace

void LayerTotals::Add(const LayerTotals& other) {
  requests += other.requests;
  pipeline_ns += other.pipeline_ns;
  untraced_pipeline_ns += other.untraced_pipeline_ns;
  cands_ns += other.cands_ns;
  prune_ns += other.prune_ns;
  map_ns += other.map_ns;
  joins_ns += other.joins_ns;
  assemble_ns += other.assemble_ns;
  similarity_ns += other.similarity_ns;
  similarity_calls += other.similarity_calls;
  keywords += other.keywords;
  candidates += other.candidates;
  configurations += other.configurations;
  infer_calls += other.infer_calls;
  distinct_bags += other.distinct_bags;
}

ReplayResult RunReplay(const Options& options, const WorkloadShape& shape,
                       const Corpus& corpus, const ServiceResult& service) {
  ReplayResult result;
  const size_t tenant_count = corpus.tenants.size();
  std::vector<Engines> engines(tenant_count);
  for (size_t t = 0; t < tenant_count; ++t) {
    const auto& dataset = corpus.tenants[t].dataset;
    engines[t].model = std::make_unique<TracedSimilarity>(dataset.lexicon.get());
    auto traced = core::Templar::Build(dataset.database.get(),
                                       engines[t].model.get(), dataset.extra_log);
    auto untraced = core::Templar::Build(dataset.database.get(),
                                         dataset.lexicon.get(), dataset.extra_log);
    if (!traced.ok() || !untraced.ok()) {
      std::fprintf(stderr, "perfbench: standalone build failed for %s\n",
                   corpus.tenants[t].id.c_str());
      std::exit(1);
    }
    engines[t].traced = std::move(*traced);
    engines[t].untraced = std::move(*untraced);
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < kReaders; ++c) {
    clients.push_back(std::make_unique<Client>(tenant_count));
  }

  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds / 2));
  std::atomic<uint64_t> cursor{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      Client* client = clients[c].get();
      RequestStream stream(shape, corpus, options.seed, c, &cursor);
      std::this_thread::sleep_until(start);
      while (Clock::now() < deadline) {
        const auto [index, op] = stream.Next();
        ReplayRequest(corpus, engines, service, index, op, c, client);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // The service run's append probe, replayed after the reads as there.
  Client* appender = clients.front().get();
  SpanBuffer* spans = &appender->spans;
  for (size_t i = 0; i < kAppendProbeBatches; ++i) {
    size_t tenant = 0;
    const auto& batch = ProbeBatch(corpus, i, &tenant);
    const uint8_t tag = static_cast<uint8_t>(tenant);
    const uint64_t id = NextRequestId(appender, 0, Op::kTranslate);
    ScopedSpan root(spans, id, Layer::kAppend, tag);
    for (const auto& entry : batch) {
      const int64_t parse_start = NowNs();
      templar::Result<templar::sql::SelectQuery> query =
          templar::Status::Internal("unset");
      {
        ScopedSpan span(spans, id, Layer::kSqlParse, tag);
        query = templar::sql::Parse(entry);
      }
      result.parse_ns += static_cast<double>(NowNs() - parse_start);
      if (!query.ok()) {
        ++appender->failed;
        continue;
      }
      const int64_t add_start = NowNs();
      {
        ScopedSpan span(spans, id, Layer::kQfgAdd, tag);
        engines[tenant].traced->AppendLogQuery(*query);
      }
      result.add_ns += static_cast<double>(NowNs() - add_start);
      engines[tenant].untraced->AppendLogQuery(*query);
      ++result.entries;
    }
  }

  // ---- Aggregate: span durations of replayed Translate requests per
  // tenant, self time per layer over every span.
  result.per_tenant.assign(tenant_count, LayerTotals{});
  std::vector<const SpanBuffer*> buffers;
  for (const auto& client : clients) {
    buffers.push_back(&client->spans);
    result.replayed += client->replayed;
    result.compared += client->compared;
    result.mismatched += client->mismatched;
    result.failed += client->failed;
    for (size_t t = 0; t < tenant_count; ++t) {
      result.per_tenant[t].Add(client->totals[t]);
    }
    const std::vector<Span>& spans = client->spans.spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const size_t layer = static_cast<size_t>(span.layer);
      result.self_ns[layer] += static_cast<double>(self[i]);
      result.span_count[layer]++;
      const uint64_t sequence = span.request & ((uint64_t{1} << kRequestShift) - 1);
      if (client->request_ops[sequence] != Op::kTranslate ||
          span.layer == Layer::kAppend || span.layer == Layer::kSqlParse ||
          span.layer == Layer::kQfgAdd) {
        continue;
      }
      LayerTotals& totals = result.per_tenant[span.tenant];
      const double duration = static_cast<double>(span.end_ns - span.start_ns);
      switch (span.layer) {
        case Layer::kPipeline:
          totals.pipeline_ns += duration;
          break;
        case Layer::kKeywordCands:
          totals.cands_ns += duration;
          break;
        case Layer::kScoreAndPrune:
          totals.prune_ns += duration;
          break;
        case Layer::kMapKeywords:
          totals.map_ns += duration;
          break;
        case Layer::kInferJoins:
          totals.joins_ns += duration;
          break;
        case Layer::kAssemble:
          totals.assemble_ns += duration;
          break;
        default:
          break;
      }
    }
  }
  for (const auto& totals : result.per_tenant) result.all.Add(totals);

  std::vector<std::string> names;
  for (const auto& tenant : corpus.tenants) names.push_back(tenant.id);
  result.trace_path = options.out_dir + "/trace-" + shape.name + ".tsv";
  if (!WriteSpans(result.trace_path, buffers, names,
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start.time_since_epoch())
                      .count())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 result.trace_path.c_str());
    result.trace_path.clear();
  }
  return result;
}

}  // namespace perfbench
