// The untraced service run: tenant registration (timed as setup), the
// reference pass that fixes every item's answer, the timed closed-loop
// readers, and the closed-loop append probe after them.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "bench.h"
#include "eval/evaluator.h"
#include "service/tenant_registry.h"
#include "sql/parser.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using templar::Result;

namespace {

/// Registrations timed per run; setup_s is their median.
constexpr size_t kSetupRepetitions = 25;
/// The append probe: rounds of kAppendProbeBatches / kAppendProbeRounds
/// appends, apart by a pause, each round's percentiles taken separately.
constexpr auto kAppendProbePause = std::chrono::milliseconds(250);

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

uint64_t HashText(const std::string& text) {
  return std::hash<std::string>{}(text);
}

std::vector<std::string> GoldFromBag(const templar::sql::SelectQuery& gold) {
  // Configuration::RelationBag's convention: sorted relations, the k-th
  // extra instance of a relation named "rel#k".
  std::map<std::string, int> counts;
  for (const auto& ref : gold.from) counts[ref.table]++;
  std::vector<std::string> bag;
  for (const auto& [relation, count] : counts) {
    bag.push_back(relation);
    for (int i = 1; i < count; ++i) {
      bag.push_back(relation + "#" + std::to_string(i));
    }
  }
  return bag;
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

/// Sums the counters of every tenant into one ServiceStats.
service::ServiceStats SumStats(const service::HostStats& host) {
  service::ServiceStats sum;
  auto add_cache = [](service::LruCacheStats* into,
                      const service::LruCacheStats& from) {
    into->hits += from.hits;
    into->misses += from.misses;
    into->evictions += from.evictions;
    into->invalidated += from.invalidated;
    into->retained += from.retained;
    into->entries += from.entries;
    into->capacity += from.capacity;
  };
  for (const auto& t : host.tenants) {
    sum.map_requests += t.map_requests;
    sum.join_requests += t.join_requests;
    sum.translate_requests += t.translate_requests;
    sum.map_computations += t.map_computations;
    sum.join_computations += t.join_computations;
    sum.translate_computations += t.translate_computations;
    sum.map_coalesced_hits += t.map_coalesced_hits;
    sum.join_coalesced_hits += t.join_coalesced_hits;
    sum.translate_coalesced_hits += t.translate_coalesced_hits;
    sum.append_batches += t.append_batches;
    sum.appended_queries += t.appended_queries;
    add_cache(&sum.map_cache, t.map_cache);
    add_cache(&sum.join_cache, t.join_cache);
    add_cache(&sum.translate_cache, t.translate_cache);
  }
  return sum;
}

/// after - before for the cumulative counters.
service::ServiceStats Delta(const service::ServiceStats& after,
                            const service::ServiceStats& before) {
  service::ServiceStats d = after;
  auto sub_cache = [](service::LruCacheStats* into,
                      const service::LruCacheStats& from) {
    into->hits -= from.hits;
    into->misses -= from.misses;
    into->evictions -= from.evictions;
    into->invalidated -= from.invalidated;
    into->retained -= from.retained;
  };
  d.map_requests -= before.map_requests;
  d.join_requests -= before.join_requests;
  d.translate_requests -= before.translate_requests;
  d.map_computations -= before.map_computations;
  d.join_computations -= before.join_computations;
  d.translate_computations -= before.translate_computations;
  d.map_coalesced_hits -= before.map_coalesced_hits;
  d.join_coalesced_hits -= before.join_coalesced_hits;
  d.translate_coalesced_hits -= before.translate_coalesced_hits;
  d.append_batches -= before.append_batches;
  d.appended_queries -= before.appended_queries;
  sub_cache(&d.map_cache, before.map_cache);
  sub_cache(&d.join_cache, before.join_cache);
  sub_cache(&d.translate_cache, before.translate_cache);
  return d;
}

/// One reader's tallies, merged after the run. Cache-line aligned: the
/// counters are written on every request, and two readers' tallies sharing
/// a line would slow both.
struct alignas(64) ReaderTally {
  explicit ReaderTally(double window_s) : latencies(window_s) {}

  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t incorrect = 0;
  std::array<uint64_t, 3> served{};
  double hit_us_sum = 0;
  uint64_t hit_count = 0;
  double overhead_us_sum = 0;
  uint64_t overhead_count = 0;
  WindowedLatency latencies;
  Clock::time_point end;
};

}  // namespace

std::optional<WorkloadShape> ShapeFor(const std::string& name) {
  WorkloadShape shape;
  shape.name = name;
  if (name == "cold") {
    // One entry per tenant against a ~449-item working set.
    shape.cache_budget = 3;
    return shape;
  }
  if (name == "warm") {
    shape.zipf_mix = true;
    shape.cache_budget = 3 * 4096;
    // Durable tenants: registration writes each base snapshot and the append
    // probe goes through the delta logs and their compactions.
    shape.replicated = true;
    return shape;
  }
  return std::nullopt;
}

Corpus BuildCorpus() {
  Corpus corpus;
  for (const char* name : {"mas", "imdb", "yelp"}) {
    Result<datasets::Dataset> built = datasets::BuildByName(name);
    if (!built.ok()) {
      Fail(std::string("dataset ") + name + ": " + built.status().ToString());
    }
    Tenant tenant;
    tenant.id = name;
    tenant.dataset = std::move(*built);
    for (const std::string& entry : tenant.dataset.extra_log) {
      if (templar::sql::Parse(entry).ok()) tenant.batches.push_back({entry});
    }
    if (tenant.batches.empty()) Fail(tenant.id + " has no parseable log");
    corpus.tenants.push_back(std::move(tenant));
  }
  for (size_t t = 0; t < corpus.tenants.size(); ++t) {
    const auto& benchmark = corpus.tenants[t].dataset.benchmark;
    for (size_t q = 0; q < benchmark.size(); ++q) {
      Item item;
      item.tenant = t;
      item.query = q;
      item.translate =
          service::QueryRequest::Translation(benchmark[q].gold_parse, 1);
      item.map_only = service::QueryRequest::MapOnly(benchmark[q].gold_parse);
      item.joins_only =
          service::QueryRequest::JoinsOnly(GoldFromBag(benchmark[q].gold_sql));
      corpus.items.push_back(std::move(item));
    }
  }
  return corpus;
}

RequestStream::RequestStream(const WorkloadShape& shape, const Corpus& corpus,
                             uint64_t seed, size_t client,
                             std::atomic<uint64_t>* cursor)
    : corpus_(&corpus), cursor_(cursor), rng_(DeriveSeed(seed, 13, client)) {
  if (shape.zipf_mix) {
    // Which items are hot is part of the workload, not of the seed: a hit's
    // cost depends on the size of the answer it copies, and seed-chosen hot
    // sets alone moved warm throughput by ~20% between seeds.
    constexpr uint64_t kPopularitySeed = 12;
    zipf_.emplace(corpus.items.size(), 1.0, kPopularitySeed);
  } else {
    laps_.emplace(corpus.items.size(), DeriveSeed(seed, 10));
  }
}

std::pair<size_t, Op> RequestStream::Next() {
  if (laps_.has_value()) {
    return {laps_->At(cursor_->fetch_add(1), &lap_cache_), Op::kTranslate};
  }
  const size_t item = zipf_->Next(&rng_);
  Op op = DrawOp(&rng_);
  if (op == Op::kJoinsOnly && !corpus_->items[item].joinable) {
    op = Op::kTranslate;
  }
  return {item, op};
}

const std::vector<std::string>& ProbeBatch(const Corpus& corpus, size_t i,
                                           size_t* tenant) {
  *tenant = i % corpus.tenants.size();
  const auto& batches = corpus.tenants[*tenant].batches;
  return batches[(i / corpus.tenants.size()) % batches.size()];
}

uint64_t TranslationSignature(const nlidb::Translation& translation) {
  return HashText(translation.query.ToString() + "|" +
                  (translation.tie_for_first ? "tie" : "sole"));
}

uint64_t ConfigurationSignature(const core::Configuration& configuration) {
  std::string text;
  for (const auto& mapping : configuration.mappings) {
    text += mapping.keyword.text + "->" + mapping.candidate.fragment.ToString() + ";";
  }
  return HashText(text);
}

uint64_t JoinPathSignature(const graph::JoinPath& join_path) {
  return HashText(join_path.Key());
}

std::optional<TopOne> MakeTopOne(Op op, const service::QueryResponse& response) {
  TopOne top;
  switch (op) {
    case Op::kTranslate:
      if (response.translations.empty()) return std::nullopt;
      top.translation = response.translations.front();
      top.signature = TranslationSignature(*top.translation);
      break;
    case Op::kMapOnly:
      if (response.configurations.empty()) return std::nullopt;
      top.configuration = response.configurations.front();
      top.signature = ConfigurationSignature(*top.configuration);
      break;
    case Op::kJoinsOnly:
      if (response.join_paths.empty()) return std::nullopt;
      top.join_path = response.join_paths.front();
      top.signature = JoinPathSignature(*top.join_path);
      break;
  }
  return top;
}

bool SameTopOne(Op op, const service::QueryResponse& response,
                const TopOne& expected) {
  switch (op) {
    case Op::kTranslate: {
      if (response.translations.empty() || !expected.translation) return false;
      const nlidb::Translation& a = response.translations.front();
      const nlidb::Translation& b = *expected.translation;
      return a.tie_for_first == b.tie_for_first && a.query == b.query;
    }
    case Op::kMapOnly: {
      if (response.configurations.empty() || !expected.configuration) {
        return false;
      }
      const core::Configuration& a = response.configurations.front();
      const core::Configuration& b = *expected.configuration;
      if (a.mappings.size() != b.mappings.size()) return false;
      for (size_t i = 0; i < a.mappings.size(); ++i) {
        if (a.mappings[i].keyword.text != b.mappings[i].keyword.text ||
            !(a.mappings[i].candidate.fragment ==
              b.mappings[i].candidate.fragment)) {
          return false;
        }
      }
      return true;
    }
    case Op::kJoinsOnly: {
      if (response.join_paths.empty() || !expected.join_path) return false;
      const graph::JoinPath& a = response.join_paths.front();
      const graph::JoinPath& b = *expected.join_path;
      return a.relations == b.relations && a.edges == b.edges;
    }
  }
  return false;
}

ServiceResult RunService(const Options& options, const WorkloadShape& shape,
                         Corpus* corpus) {
  ServiceResult result;
  result.reads = WindowedLatency(kWindowSeconds);
  std::vector<Tenant>& tenants = corpus->tenants;
  std::vector<Item>& items = corpus->items;

  service::HostOptions host_options;
  host_options.worker_threads = 4;
  host_options.map_cache_budget = shape.cache_budget;
  host_options.join_cache_budget = shape.cache_budget;
  host_options.translate_cache_budget = shape.cache_budget;

  // ---- Setup: tenant registration, timed several times. Each repetition
  // registers every tenant on a fresh host (with fresh replication
  // directories); the last one serves the run.
  std::vector<std::string> log_dirs;
  auto remove_log_dirs = [&log_dirs] {
    for (const auto& dir : log_dirs) std::filesystem::remove_all(dir);
    log_dirs.clear();
  };
  std::unique_ptr<service::ServiceHost> host;
  for (size_t rep = 0; rep < kSetupRepetitions; ++rep) {
    host.reset();
    remove_log_dirs();
    host = std::make_unique<service::ServiceHost>(host_options);
    std::vector<service::TenantOptions> tenant_options(tenants.size());
    if (shape.replicated) {
      for (size_t t = 0; t < tenants.size(); ++t) {
        log_dirs.push_back(options.out_dir + "/log-" + tenants[t].id + "-" +
                           std::to_string(rep));
        std::filesystem::remove_all(log_dirs.back());
        auto& replication = tenant_options[t].replication;
        replication.log_dir = log_dirs.back();
        replication.fsync_appends = false;
        replication.compact_after_records = kCompactAfterRecords;
      }
    }
    const auto start = Clock::now();
    for (size_t t = 0; t < tenants.size(); ++t) {
      const Tenant& tenant = tenants[t];
      templar::Status status = host->RegisterTenant(
          tenant.id, tenant.dataset.database.get(),
          tenant.dataset.lexicon.get(), tenant.dataset.extra_log,
          tenant_options[t]);
      if (!status.ok()) Fail("register " + tenant.id + ": " + status.ToString());
    }
    result.setup_samples_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::vector<service::TenantHandle> handles;
  for (const Tenant& tenant : tenants) {
    auto handle = host->Tenant(tenant.id);
    if (!handle.ok()) Fail("tenant " + tenant.id + ": " + handle.status().ToString());
    handles.push_back(*handle);
  }

  // ---- Reference pass (untimed): every item's answer per operation. It
  // also finishes lazy initialisation and, on `warm`, fills the caches.
  std::vector<std::array<std::optional<TopOne>, kOpCount>> reference(items.size());
  {
    std::atomic<uint64_t> failures{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < kReaders; ++w) {
      workers.emplace_back([&, w] {
        for (size_t i = w; i < items.size(); i += kReaders) {
          Item& item = items[i];
          const service::TenantHandle& handle = handles[item.tenant];
          auto translated = handle.Translate(item.translate);
          if (translated.ok()) {
            reference[i][0] = MakeTopOne(Op::kTranslate, *translated);
          }
          if (!reference[i][0]) failures.fetch_add(1);
          if (!shape.zipf_mix) continue;
          auto mapped = handle.Translate(item.map_only);
          if (mapped.ok()) reference[i][1] = MakeTopOne(Op::kMapOnly, *mapped);
          if (!reference[i][1]) failures.fetch_add(1);
          // A gold bag without a join path never enters the mix.
          auto joined = handle.Translate(item.joins_only);
          if (joined.ok()) {
            reference[i][2] = MakeTopOne(Op::kJoinsOnly, *joined);
          }
          item.joinable = reference[i][2].has_value();
        }
      });
    }
    for (auto& worker : workers) worker.join();
    result.reference_ops = items.size() * (shape.zipf_mix ? kOpCount : 1);
    result.reference_failures = failures.load();
  }
  {
    size_t fq = 0;
    size_t kw = 0;
    result.answers.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t op = 0; op < kOpCount; ++op) {
        if (reference[i][op]) result.answers[i][op] = reference[i][op]->signature;
      }
      if (!reference[i][0]) continue;
      const auto& gold =
          tenants[items[i].tenant].dataset.benchmark[items[i].query];
      Result<nlidb::Translation> served(*reference[i][0]->translation);
      const auto outcome = templar::eval::JudgeTranslation(gold, served);
      fq += outcome.fq_correct ? 1 : 0;
      kw += outcome.kw_correct ? 1 : 0;
    }
    result.fq_accuracy = static_cast<double>(fq) / static_cast<double>(items.size());
    result.kw_accuracy = static_cast<double>(kw) / static_cast<double>(items.size());
  }

  // ---- Timed run: closed-loop readers. Every answer must be the item's
  // reference answer, whether cache-served or computed.
  const service::ServiceStats stats_before = SumStats(host->Stats());
  const RusageSample usage_before = SampleRusage();

  std::vector<std::unique_ptr<ReaderTally>> tallies;
  for (size_t c = 0; c < kReaders; ++c) {
    tallies.push_back(std::make_unique<ReaderTally>(kWindowSeconds));
  }
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  std::atomic<uint64_t> cursor{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      ReaderTally& tally = *tallies[c];
      RequestStream stream(shape, *corpus, options.seed, c, &cursor);
      std::this_thread::sleep_until(start);
      while (Clock::now() < deadline) {
        const auto [index, op] = stream.Next();
        const Item& item = items[index];
        ++tally.attempted;
        const auto sent = Clock::now();
        auto response = handles[item.tenant].Translate(item.Request(op));
        const double latency_us = Us(Clock::now() - sent);
        tally.latencies.Add(std::chrono::duration<double>(sent - start).count(),
                            latency_us, response.ok());
        if (!response.ok()) {
          ++tally.failed;
          continue;
        }
        ++tally.ok;
        tally.served[static_cast<size_t>(response->served_from)]++;
        if (response->served_from == service::ServedFrom::kCache) {
          tally.hit_us_sum += latency_us;
          ++tally.hit_count;
        } else if (response->served_from == service::ServedFrom::kComputed &&
                   op == Op::kTranslate) {
          const auto& t = response->timings;
          tally.overhead_us_sum +=
              static_cast<double>((t.total - t.map - t.join - t.assemble).count());
          ++tally.overhead_count;
        }
        if (options.corrupt_top1 && c == 0 && tally.ok == 10 &&
            !response->translations.empty()) {
          response->translations.front().query.limit = 987654321;
        }
        const auto& expected = reference[index][static_cast<size_t>(op)];
        if (!expected || !SameTopOne(op, *response, *expected)) ++tally.incorrect;
      }
      tally.end = Clock::now();
    });
  }
  for (auto& thread : threads) thread.join();

  const RusageSample usage_after = SampleRusage();
  const service::ServiceStats stats_after_reads = SumStats(host->Stats());
  result.stats = Delta(stats_after_reads, stats_before);
  result.usage.cpu_us = usage_after.cpu_us - usage_before.cpu_us;
  result.usage.voluntary_switches =
      usage_after.voluntary_switches - usage_before.voluntary_switches;
  result.usage.involuntary_switches =
      usage_after.involuntary_switches - usage_before.involuntary_switches;
  result.usage.max_rss_kb = usage_after.max_rss_kb;

  Clock::time_point last_end = start;
  for (const auto& tally : tallies) {
    last_end = std::max(last_end, tally->end);
    result.attempted += tally->attempted;
    result.ok += tally->ok;
    result.failed += tally->failed;
    result.incorrect += tally->incorrect;
    for (size_t s = 0; s < 3; ++s) result.served[s] += tally->served[s];
    result.hit_us_sum += tally->hit_us_sum;
    result.hit_count += tally->hit_count;
    result.overhead_us_sum += tally->overhead_us_sum;
    result.overhead_count += tally->overhead_count;
    result.reads.Merge(tally->latencies);
  }
  result.elapsed_s = std::chrono::duration<double>(last_end - start).count();

  // ---- Append probe: closed-loop appends after the reads, round-robin over
  // the tenants, in rounds apart by a pause. Percentiles are taken per
  // round (see stats.h for which round is reported).
  const int64_t wchar_before = ReadWriteChars();
  const size_t per_round = kAppendProbeBatches / kAppendProbeRounds;
  for (size_t round = 0; round < kAppendProbeRounds; ++round) {
    std::this_thread::sleep_for(kAppendProbePause);
    std::vector<double> latencies;
    for (size_t i = round * per_round; i < (round + 1) * per_round; ++i) {
      size_t t = 0;
      const auto& batch = ProbeBatch(*corpus, i, &t);
      const auto sent = Clock::now();
      auto outcome = handles[t].AppendLogQueries(batch);
      latencies.push_back(Us(Clock::now() - sent));
      ++result.appends_attempted;
      if (!outcome.ok() || outcome->appended != batch.size()) {
        ++result.appends_failed;
      }
      for (const auto& entry : batch) result.appended_sql_bytes += entry.size();
    }
    std::sort(latencies.begin(), latencies.end());
    result.append_rounds_us.push_back(std::move(latencies));
  }
  const int64_t wchar_after = ReadWriteChars();
  if (wchar_before >= 0 && wchar_after >= 0) {
    result.written_bytes = wchar_after - wchar_before;
  }
  result.probe_stats = Delta(SumStats(host->Stats()), stats_after_reads);
  for (const auto& dir : log_dirs) {
    result.compactions += std::max<int64_t>(0, CountCompactions(dir));
  }

  host.reset();
  remove_log_dirs();
  return result;
}

}  // namespace perfbench
