#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the `q` percentile among `n` samples.
size_t NearestRank(size_t n, double q) {
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

constexpr int kSubBuckets = 64;
/// Octaves covered: 2^kMinExponent (~0.004 us) up to 2^kMaxExponent us.
constexpr int kMinExponent = -8;
constexpr int kMaxExponent = 40;
constexpr size_t kBucketCount =
    static_cast<size_t>(kMaxExponent - kMinExponent) * kSubBuckets;

}  // namespace

double Percentile(const std::vector<double>& sorted, double q) {
  return sorted[NearestRank(sorted.size(), q) - 1];
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

bool PercentileSupported(size_t n, double q, size_t min_beyond) {
  return n > 0 && SamplesBeyond(n, q) >= min_beyond;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return Percentile(values, q);
}

LogHistogram::LogHistogram() : buckets_(kBucketCount, 0) {}

size_t LogHistogram::Index(double value) {
  if (!(value > 0)) return 0;
  int exponent = 0;
  // value = mantissa * 2^exponent, mantissa in [0.5, 1).
  const double mantissa = std::frexp(value, &exponent);
  if (exponent <= kMinExponent) return 0;
  if (exponent > kMaxExponent) return kBucketCount - 1;
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((mantissa - 0.5) * 2 * kSubBuckets));
  return static_cast<size_t>(exponent - kMinExponent - 1) * kSubBuckets +
         static_cast<size_t>(sub);
}

double LogHistogram::LowerBound(size_t index) {
  const int exponent = static_cast<int>(index / kSubBuckets) + kMinExponent + 1;
  const double mantissa =
      0.5 + static_cast<double>(index % kSubBuckets) / (2.0 * kSubBuckets);
  return std::ldexp(mantissa, exponent);
}

void LogHistogram::Add(double value) {
  buckets_[Index(value)]++;
  ++count_;
}

void LogHistogram::Merge(const LogHistogram& other) {
  for (size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LogHistogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  const uint64_t rank = NearestRank(count_, q);
  uint64_t below = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    if (buckets_[i] == 0) continue;
    if (below + buckets_[i] >= rank) {
      // Spread the bucket's samples evenly over its width.
      const double fraction =
          (static_cast<double>(rank - below) - 0.5) / static_cast<double>(buckets_[i]);
      const double lo = LowerBound(i);
      const double hi = i + 1 < kBucketCount ? LowerBound(i + 1) : 2 * lo;
      return lo + fraction * (hi - lo);
    }
    below += buckets_[i];
  }
  return LowerBound(kBucketCount - 1);
}

void WindowedLatency::Add(double offset_s, double latency_us, bool ok) {
  const size_t window =
      offset_s <= 0 ? 0 : static_cast<size_t>(offset_s / window_s_);
  if (window >= histograms_.size()) {
    histograms_.resize(window + 1);
    ok_.resize(window + 1, 0);
  }
  histograms_[window].Add(latency_us);
  if (ok) ok_[window]++;
}

void WindowedLatency::Merge(const WindowedLatency& other) {
  if (other.histograms_.size() > histograms_.size()) {
    histograms_.resize(other.histograms_.size());
    ok_.resize(other.histograms_.size(), 0);
  }
  for (size_t w = 0; w < other.histograms_.size(); ++w) {
    histograms_[w].Merge(other.histograms_[w]);
    ok_[w] += other.ok_[w];
  }
}

uint64_t WindowedLatency::count() const {
  uint64_t total = 0;
  for (const auto& histogram : histograms_) total += histogram.count();
  return total;
}

double WindowedLatency::RateQuantile(size_t windows, double q) const {
  std::vector<double> rates;
  for (size_t w = 0; w < windows; ++w) {
    const uint64_t ok = w < ok_.size() ? ok_[w] : 0;
    rates.push_back(static_cast<double>(ok) / window_s_);
  }
  return Quantile(rates, q);
}

double WindowedLatency::PercentileQuantile(double percentile, double q) const {
  std::vector<double> values;
  LogHistogram group;
  for (const auto& histogram : histograms_) {
    group.Merge(histogram);
    if (PercentileSupported(group.count(), percentile)) {
      values.push_back(group.Percentile(percentile));
      group = LogHistogram();
    }
  }
  return Quantile(values, q);
}

}  // namespace perfbench
