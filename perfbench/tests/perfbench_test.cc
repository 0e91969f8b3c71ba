// Unit tests of the benchmark's own code: the percentile rule, stream
// determinism, span self time, and the write-amplification arithmetic.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "probes.h"
#include "spans.h"
#include "stats.h"
#include "streams.h"

namespace perfbench {
namespace {

std::vector<double> Range(size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> values = Range(100);
  EXPECT_EQ(Percentile(values, 0.50), 50);
  EXPECT_EQ(Percentile(values, 0.99), 99);
  EXPECT_EQ(Percentile(values, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.99), 7);
}

TEST(PercentileTest, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(20, 0.50));
  EXPECT_FALSE(PercentileSupported(19, 0.50));
  EXPECT_FALSE(PercentileSupported(0, 0.50));
}

TEST(PercentileTest, HistogramTracksExactPercentiles) {
  LogHistogram histogram;
  std::vector<double> values;
  for (int i = 1; i <= 10000; ++i) {
    const double value = 3.0 + 0.01 * i * (i % 7);  // 3 us .. ~600 us
    histogram.Add(value);
    values.push_back(value);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = Percentile(values, q);
    EXPECT_NEAR(histogram.Percentile(q), exact, exact / 64) << "q=" << q;
  }
  EXPECT_EQ(histogram.count(), 10000u);
  EXPECT_EQ(LogHistogram().Percentile(0.5), 0);
}

TEST(PercentileTest, HistogramMergeEqualsCombinedAdds) {
  LogHistogram a;
  LogHistogram b;
  LogHistogram both;
  for (int i = 0; i < 500; ++i) {
    a.Add(10 + i);
    b.Add(1000 + 3 * i);
    both.Add(10 + i);
    both.Add(1000 + 3 * i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  for (double q : {0.1, 0.5, 0.99}) EXPECT_EQ(a.Percentile(q), both.Percentile(q));
}

TEST(PercentileTest, WindowQuantilesIgnoreOneSlowWindow) {
  WindowedLatency run(1.0);
  // Ten windows of 100 ops at 5 us; window 3 is slowed to 50 us and only
  // completes 20 ops.
  for (int w = 0; w < 10; ++w) {
    const int ops = w == 3 ? 20 : 100;
    for (int i = 0; i < ops; ++i) run.Add(w + 0.001 * i, w == 3 ? 50 : 5, true);
  }
  EXPECT_EQ(run.windows(), 10u);
  EXPECT_EQ(run.RateQuantile(10, 0.5), 100);
  EXPECT_EQ(run.RateQuantile(10, 0.05), 20);
  EXPECT_NEAR(run.PercentileQuantile(0.5, 0.5), 5, 5.0 / 64);
  EXPECT_NEAR(run.PercentileQuantile(0.5, 1.0), 50, 50.0 / 64);
  // p99 needs 1000 samples (ten beyond it); the run's 920 never get there.
  EXPECT_EQ(run.PercentileQuantile(0.99, 0.5), 0);
  // p90 needs 100 samples: each full window is its own group, the slow
  // window merges with the next one.
  EXPECT_NEAR(run.PercentileQuantile(0.90, 0.25), 5, 5.0 / 64);
  // Failed operations count toward latency but not toward the rate.
  WindowedLatency failing(1.0);
  failing.Add(0.5, 5, false);
  EXPECT_EQ(failing.RateQuantile(1, 0.5), 0);
  EXPECT_EQ(failing.count(), 1u);
}

TEST(PercentileTest, MedianAndQuantile) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.25), 1);
  EXPECT_EQ(Quantile({4, 1, 3, 2}, 0.75), 3);
  EXPECT_EQ(Quantile({}, 0.5), 0);
}

TEST(StreamTest, EveryLapCoversEveryItemOnce) {
  const LapSequence laps(449, 7);
  LapSequence::Cache cache;
  std::vector<size_t> expected(449);
  std::iota(expected.begin(), expected.end(), 0);
  for (uint64_t lap = 0; lap < 3; ++lap) {
    std::vector<size_t> seen;
    for (uint64_t p = lap * 449; p < (lap + 1) * 449; ++p) {
      seen.push_back(laps.At(p, &cache));
    }
    EXPECT_NE(seen, expected) << "lap " << lap << " was not shuffled";
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expected) << "lap " << lap;
  }
}

TEST(StreamTest, LapsAreSeedDeterministic) {
  EXPECT_EQ(LapSequence(100, 7).Lap(0), LapSequence(100, 7).Lap(0));
  EXPECT_EQ(LapSequence(100, 7).Lap(5), LapSequence(100, 7).Lap(5));
  EXPECT_NE(LapSequence(100, 7).Lap(0), LapSequence(100, 8).Lap(0));
  EXPECT_NE(LapSequence(100, 7).Lap(0), LapSequence(100, 7).Lap(1));
  // Readers claiming positions in any interleaving see the same items at
  // the same positions.
  const LapSequence laps(50, 3);
  LapSequence::Cache a;
  LapSequence::Cache b;
  for (uint64_t p = 0; p < 200; p += 3) {
    EXPECT_EQ(laps.At(p, &a), laps.At(p, &b));
    EXPECT_EQ(laps.At(199 - p, &b), laps.Lap((199 - p) / 50)[(199 - p) % 50]);
  }
}

TEST(StreamTest, ZipfIsSeedDeterministicAndSkewed) {
  auto draw = [](uint64_t permutation_seed, uint64_t stream_seed) {
    ZipfSampler zipf(100, 1.0, permutation_seed);
    SplitMix64 rng(stream_seed);
    std::vector<size_t> out;
    for (int i = 0; i < 20000; ++i) out.push_back(zipf.Next(&rng));
    return out;
  };
  const std::vector<size_t> first = draw(5, 9);
  EXPECT_EQ(first, draw(5, 9));
  EXPECT_NE(first, draw(6, 9));
  EXPECT_NE(first, draw(5, 10));

  std::vector<size_t> counts(100, 0);
  for (size_t item : first) counts[item]++;
  // The hottest item carries 1/H(100) ~ 19% of the draws, the second half.
  double harmonic = 0;
  for (int r = 1; r <= 100; ++r) harmonic += 1.0 / r;
  std::sort(counts.rbegin(), counts.rend());
  EXPECT_NEAR(counts[0] / 20000.0, 1 / harmonic, 0.015);
  EXPECT_NEAR(counts[1] / 20000.0, 0.5 / harmonic, 0.015);
}

TEST(StreamTest, OpMixIsEightyTenTen) {
  SplitMix64 rng(11);
  std::vector<size_t> counts(kOpCount, 0);
  for (int i = 0; i < 100000; ++i) counts[static_cast<size_t>(DrawOp(&rng))]++;
  EXPECT_NEAR(counts[0] / 100000.0, 0.8, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.1, 0.01);
}

Span MakeSpan(int32_t parent, int64_t start, int64_t end) {
  Span span;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SpanTest, SelfTimeOnHandBuiltTree) {
  // root [0,100): children [10,30) and [20,50) overlap -> cover [10,50);
  // child [90,120) is clipped to [90,100). Grandchild [12,18) under the
  // first child.
  std::vector<Span> spans = {
      MakeSpan(-1, 0, 100),  // 0 root
      MakeSpan(0, 10, 30),   // 1
      MakeSpan(0, 20, 50),   // 2
      MakeSpan(0, 90, 120),  // 3
      MakeSpan(1, 12, 18),   // 4
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(SpanTest, RecorderNestsParents) {
  SpanBuffer buffer;
  {
    ScopedSpan root(&buffer, 7, Layer::kRequest, 1);
    { ScopedSpan child(&buffer, 7, Layer::kMapKeywords, 1); }
    { ScopedSpan child(&buffer, 7, Layer::kInferJoins, 1); }
  }
  // A stage measured elsewhere, recorded under the closed root.
  const int64_t root_start = buffer.spans()[0].start_ns;
  buffer.Add(7, 0, Layer::kAssemble, 1, root_start, root_start + 1);
  const auto& spans = buffer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 0);
  EXPECT_EQ(spans[3].layer, Layer::kAssemble);
  for (const Span& span : spans) {
    EXPECT_EQ(span.request, 7u);
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  EXPECT_LE(spans[1].end_ns, spans[2].start_ns);
}

TEST(ProbeTest, WriteAmplificationArithmetic) {
  EXPECT_DOUBLE_EQ(WriteBytesPerSqlByte(3000, 1000), 3.0);
  EXPECT_DOUBLE_EQ(WriteBytesPerSqlByte(500, 1000), 0.5);
  EXPECT_EQ(WriteBytesPerSqlByte(100, 0), 0);
  EXPECT_EQ(WriteBytesPerSqlByte(-1, 100), 0);
}

TEST(ProbeTest, CompactionsFromGenerations) {
  // Relative to the working directory (the build directory under
  // run.py --self-test).
  const std::filesystem::path dir = "perfbench_probe_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(CountCompactions(dir.string()), -1);
  std::ofstream(dir / "base.0.qfg") << "x";
  std::ofstream(dir / "delta.log") << "x";
  EXPECT_EQ(CountCompactions(dir.string()), 0);
  std::ofstream(dir / "base.12.qfg") << "x";
  std::ofstream(dir / "base.x.qfg") << "x";
  EXPECT_EQ(CountCompactions(dir.string()), 12);
  std::filesystem::remove_all(dir);
}

TEST(ProbeTest, RusageAndIoAreReadable) {
  const RusageSample sample = SampleRusage();
  EXPECT_GT(sample.max_rss_kb, 0);
  EXPECT_GE(sample.cpu_us, 0);
  EXPECT_GE(ReadWriteChars(), 0);
}

}  // namespace
}  // namespace perfbench
