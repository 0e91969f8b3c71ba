// NLQ->SQL serving benchmark over service::ServiceHost.
//
//   perfbench --workload cold|warm [--seed N] [--seconds S]
//             [--trace 0|1] [--out-dir DIR] [--corrupt-top1]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) additionally replay the stream stage by stage on standalone
// core::Templar instances and report the per-layer metrics. Every metric is
// printed as "name = value unit"; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when any operation failed or any served answer was inconsistent.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "spans.h"

namespace {

using perfbench::Options;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload cold|warm "
               "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
               "[--corrupt-top1]\n",
               message);
  std::exit(2);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corrupt-top1") {
      options.corrupt_top1 = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUnsigned(value, &number)) Usage("bad --seed");
      options.seed = number;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0) ||
          options.seconds > 600) {
        Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) Usage("bad --trace");
      options.trace = number == 1;
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

/// Quantile of windows (and append rounds) that a timing reports, counted
/// from the fast end: see stats.h.
constexpr double kNearBest = 0.1;

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// The core/embed/nlidb metrics of one tenant (or all) with a suffix.
void AddLayerMetrics(const perfbench::LayerTotals& t, const std::string& suffix,
                     std::vector<Metric>* out) {
  const double n = static_cast<double>(t.requests);
  const double enumerate_ns = std::max(0.0, t.map_ns - t.cands_ns - t.prune_ns);
  auto add = [&](const char* name, double value, const char* unit) {
    out->push_back({std::string(name) + suffix, value, unit});
  };
  add("embed.similarity_calls_per_request",
      Ratio(static_cast<double>(t.similarity_calls), n), "count");
  add("embed.similarity_us", Ratio(t.similarity_ns / 1e3, n), "us");
  add("core.cands_us", Ratio(t.cands_ns / 1e3, n), "us");
  add("core.candidates_per_keyword",
      Ratio(static_cast<double>(t.candidates), static_cast<double>(t.keywords)),
      "count");
  add("core.prune_us", Ratio(t.prune_ns / 1e3, n), "us");
  add("core.enumerate_us", Ratio(enumerate_ns / 1e3, n), "us");
  add("core.configurations_per_request",
      Ratio(static_cast<double>(t.configurations), n), "count");
  add("core.infer_joins_us", Ratio(t.joins_ns / 1e3, n), "us");
  add("core.infer_joins_calls_per_request",
      Ratio(static_cast<double>(t.infer_calls), n), "count");
  add("core.distinct_bags_ratio",
      Ratio(static_cast<double>(t.distinct_bags),
            static_cast<double>(t.infer_calls)),
      "ratio");
  add("nlidb.assemble_us", Ratio(t.assemble_ns / 1e3, n), "us");
  add("nlidb.pipeline_us", Ratio(t.pipeline_ns / 1e3, n), "us");
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);
  std::optional<perfbench::WorkloadShape> found =
      perfbench::ShapeFor(options.workload);
  if (!found) Usage("unknown workload");
  const perfbench::WorkloadShape shape = *found;
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  if (error) Usage(("cannot create --out-dir: " + error.message()).c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "hardware_threads=%u\n",
              shape.name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  perfbench::Corpus corpus = perfbench::BuildCorpus();
  std::printf("corpus: %zu items over %zu tenant(s); %zu reader(s), %s\n",
              corpus.items.size(), corpus.tenants.size(), perfbench::kReaders,
              shape.zipf_mix ? "Zipf items, 80/10/10 translate/map/joins mix"
                             : "seeded laps claimed from a shared cursor, translate only");
  if (shape.replicated) {
    std::printf("replication: one delta log per tenant, fsync off, compaction "
                "every %llu records\n",
                static_cast<unsigned long long>(perfbench::kCompactAfterRecords));
  }

  perfbench::ServiceResult svc = perfbench::RunService(options, shape, &corpus);

  // ---- End-to-end metrics.
  std::vector<Metric> e2e;
  const double setup_s = perfbench::Median(svc.setup_samples_s);
  e2e.push_back({"setup_s", setup_s, "s"});
  e2e.push_back({"peak_rss_mb", static_cast<double>(svc.usage.max_rss_kb) / 1024.0, "MB"});
  const size_t full_windows =
      static_cast<size_t>(options.seconds / perfbench::kWindowSeconds + 1e-9);
  // Window quantiles near the uncontended speed (see stats.h).
  e2e.push_back({"query_qps", svc.reads.RateQuantile(full_windows, 1 - kNearBest), "1/s"});
  e2e.push_back({"query_p50_us", svc.reads.PercentileQuantile(0.50, kNearBest), "us"});
  e2e.push_back({"query_p99_us", svc.reads.PercentileQuantile(0.99, kNearBest), "us"});
  e2e.push_back({"fq_accuracy", svc.fq_accuracy, "ratio"});
  e2e.push_back({"kw_accuracy", svc.kw_accuracy, "ratio"});
  std::vector<double> append_p50s;
  std::vector<double> append_p99s;
  bool append_p99_supported = !svc.append_rounds_us.empty();
  for (const auto& round : svc.append_rounds_us) {
    append_p99_supported =
        append_p99_supported && perfbench::PercentileSupported(round.size(), 0.99);
    if (round.empty()) continue;
    append_p50s.push_back(perfbench::Percentile(round, 0.50));
    append_p99s.push_back(perfbench::Percentile(round, 0.99));
  }
  e2e.push_back({"append_p50_us", perfbench::Quantile(append_p50s, kNearBest), "us"});

  // ---- Per-layer metrics read from outside the library.
  const auto& st = svc.stats;
  const double reads = static_cast<double>(svc.ok);
  std::vector<Metric> layers;
  // The tail of ~10 us appends is mostly the host's preemptions: too noisy
  // for a bound, so it is reported per layer.
  layers.push_back({"append.p99_us", perfbench::Quantile(append_p99s, kNearBest), "us"});
  auto hit_rate = [](const templar::service::LruCacheStats& c) {
    return Ratio(static_cast<double>(c.hits), static_cast<double>(c.hits + c.misses));
  };
  const double requests =
      static_cast<double>(st.map_requests + st.join_requests + st.translate_requests);
  const double coalesced = static_cast<double>(
      st.map_coalesced_hits + st.join_coalesced_hits + st.translate_coalesced_hits);
  const double evictions = static_cast<double>(
      st.map_cache.evictions + st.join_cache.evictions + st.translate_cache.evictions);
  // Invalidation is measured over the append probe, the only appends.
  const auto& pst = svc.probe_stats;
  const double retained = static_cast<double>(
      pst.map_cache.retained + pst.join_cache.retained + pst.translate_cache.retained);
  const double invalidated = static_cast<double>(
      pst.map_cache.invalidated + pst.join_cache.invalidated +
      pst.translate_cache.invalidated);
  layers.push_back({"service.translate_hit_rate", hit_rate(st.translate_cache), "ratio"});
  layers.push_back({"service.map_hit_rate", hit_rate(st.map_cache), "ratio"});
  layers.push_back({"service.join_hit_rate", hit_rate(st.join_cache), "ratio"});
  layers.push_back({"service.coalesced_ratio", Ratio(coalesced, requests), "ratio"});
  layers.push_back({"service.evictions_per_request", Ratio(evictions, requests), "count"});
  layers.push_back({"service.hit_us", Ratio(svc.hit_us_sum, static_cast<double>(svc.hit_count)), "us"});
  layers.push_back({"service.overhead_us",
                    Ratio(svc.overhead_us_sum, static_cast<double>(svc.overhead_count)), "us"});
  layers.push_back({"service.retained_ratio", Ratio(retained, retained + invalidated), "ratio"});
  layers.push_back({"service.invalidated_per_append",
                    Ratio(invalidated, static_cast<double>(pst.append_batches)), "count"});
  layers.push_back({"replication.write_bytes_per_sql_byte",
                    perfbench::WriteBytesPerSqlByte(svc.written_bytes,
                                                    svc.appended_sql_bytes),
                    "ratio"});
  layers.push_back({"replication.compactions",
                    static_cast<double>(std::max<int64_t>(0, svc.compactions)), "count"});
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  layers.push_back({"process.cpu_us_per_request", Ratio(svc.usage.cpu_us, reads), "us"});
  layers.push_back({"process.ctx_switches_per_request",
                    Ratio(static_cast<double>(svc.usage.voluntary_switches), reads), "count"});
  layers.push_back({"process.cpu_util",
                    Ratio(svc.usage.cpu_us, svc.elapsed_s * 1e6 * cores), "ratio"});

  uint64_t attempted = svc.attempted + svc.appends_attempted + svc.reference_ops;
  uint64_t failed = svc.failed + svc.incorrect + svc.appends_failed +
                    svc.reference_failures;

  // ---- Traced replay.
  if (options.trace) {
    perfbench::ReplayResult replay =
        perfbench::RunReplay(options, shape, corpus, svc);
    std::vector<Metric> traced;
    AddLayerMetrics(replay.all, "", &traced);
    for (const char* tenant : {"mas", "imdb", "yelp"}) {
      perfbench::LayerTotals totals;
      for (size_t t = 0; t < corpus.tenants.size(); ++t) {
        if (corpus.tenants[t].id == tenant) totals = replay.per_tenant[t];
      }
      AddLayerMetrics(totals, std::string(".") + tenant, &traced);
    }
    const auto& all = replay.all;
    const double overhead = all.untraced_pipeline_ns > 0
                                ? all.pipeline_ns / all.untraced_pipeline_ns - 1
                                : 0;
    // Share of each traced pipeline call its own stage times account for.
    traced.push_back({"trace.coverage",
                      Ratio(all.map_ns + all.joins_ns + all.assemble_ns, all.pipeline_ns),
                      "ratio"});
    traced.push_back({"trace.overhead_ratio", overhead, "ratio"});
    traced.push_back({"sql.parse_us_per_entry",
                      Ratio(replay.parse_ns / 1e3, static_cast<double>(replay.entries)),
                      "us"});
    traced.push_back({"qfg.add_us_per_entry",
                      Ratio(replay.add_ns / 1e3, static_cast<double>(replay.entries)), "us"});
    layers.insert(layers.begin(), traced.begin(), traced.end());

    std::printf("trace: %llu replayed translate requests, %llu answers "
                "compared with the service (%llu mismatched, %llu failed)\n",
                static_cast<unsigned long long>(all.requests),
                static_cast<unsigned long long>(replay.compared),
                static_cast<unsigned long long>(replay.mismatched),
                static_cast<unsigned long long>(replay.failed));
    std::printf("trace: overhead %+.2f%% (traced TranslateAllWithTemplar "
                "%.1f us vs untraced %.1f us per request)\n",
                100 * overhead,
                Ratio(all.pipeline_ns / 1e3, static_cast<double>(all.requests)),
                Ratio(all.untraced_pipeline_ns / 1e3, static_cast<double>(all.requests)));
    std::printf("trace: self time per layer (all spans)\n");
    for (size_t l = 0; l < perfbench::kLayerCount; ++l) {
      if (replay.span_count[l] == 0) continue;
      std::printf("  %-20s %9llu spans %12.1f ms self\n",
                  perfbench::LayerName(static_cast<perfbench::Layer>(l)),
                  static_cast<unsigned long long>(replay.span_count[l]),
                  replay.self_ns[l] / 1e6);
    }
    if (!replay.trace_path.empty()) {
      std::printf("trace: spans written to %s\n", replay.trace_path.c_str());
    }
    attempted += replay.replayed;
    failed += replay.mismatched + replay.failed;
  }

  // ---- Report.
  const bool p99_supported = perfbench::PercentileSupported(svc.reads.count(), 0.99);
  std::printf("reads: %llu attempted, %llu ok in %.3f s; served computed=%llu "
              "cache=%llu coalesced=%llu\n",
              static_cast<unsigned long long>(svc.attempted),
              static_cast<unsigned long long>(svc.ok), svc.elapsed_s,
              static_cast<unsigned long long>(svc.served[0]),
              static_cast<unsigned long long>(svc.served[1]),
              static_cast<unsigned long long>(svc.served[2]));
  std::printf("latency samples: %llu reads in %zu windows of %g s (p99 %s); "
              "%zu append rounds of %zu (p99 %s); timings are the "
              "10%%-from-fastest quantile of windows and rounds\n",
              static_cast<unsigned long long>(svc.reads.count()),
              svc.reads.windows(), perfbench::kWindowSeconds,
              p99_supported ? "has >=10 samples beyond" : "UNSUPPORTED",
              svc.append_rounds_us.size(),
              svc.append_rounds_us.empty() ? size_t{0} : svc.append_rounds_us[0].size(),
              append_p99_supported ? "has >=10 samples beyond" : "UNSUPPORTED");
  std::printf("process: %.0f us CPU, %lld voluntary and %lld involuntary "
              "context switches over the reads\n",
              svc.usage.cpu_us,
              static_cast<long long>(svc.usage.voluntary_switches),
              static_cast<long long>(svc.usage.involuntary_switches));
  std::printf("achieved: translate hit rate %.4f, coalesced ratio %.4f\n",
              hit_rate(st.translate_cache), Ratio(coalesced, requests));
  std::printf("setup: median %.6f s over %zu registrations\n", setup_s,
              svc.setup_samples_s.size());
  std::printf("errors: %llu failed, %llu incorrect, %llu append failures, "
              "%llu reference failures\n",
              static_cast<unsigned long long>(svc.failed),
              static_cast<unsigned long long>(svc.incorrect),
              static_cast<unsigned long long>(svc.appends_failed),
              static_cast<unsigned long long>(svc.reference_failures));
  const double error_rate = Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("error_rate = %.6g ratio (%llu of %llu operations)\n", error_rate,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const auto* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

  const bool correct = failed == 0 && p99_supported && append_p99_supported;
  if (!correct) {
    std::printf("CORRECTNESS GATE FAILED\n");
  }
  PrintJson(correct, attempted, failed, options.trace ? layers : e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
