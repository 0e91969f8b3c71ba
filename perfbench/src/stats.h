#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file stats.h
/// \brief Latency statistics: nearest-rank percentiles, the "ten samples
/// beyond" rule for tail percentiles, a log-linear histogram for per-window
/// latency distributions, and quantiles across windows.
///
/// The machines this runs on share their CPUs with other tenants, and the
/// share a run gets changes from one second to the next (a fixed 4-thread
/// loop has measured anywhere from 1x to 3.5x its best time). Every timing
/// is therefore taken per window of the run (or per round of the append
/// probe), and the run reports a quantile of the windows near the
/// uncontended speed: the 90th percentile of window throughputs, the 10th
/// percentile of window latency percentiles. Contention moves some windows,
/// not the result; a slower program moves every window.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// \brief Nearest-rank percentile: the smallest sample with at least
/// `q * n` samples at or below it. `sorted` must be ascending and non-empty;
/// `q` is in (0, 1].
double Percentile(const std::vector<double>& sorted, double q);

/// \brief Samples strictly above the nearest-rank `q` percentile of `n`.
size_t SamplesBeyond(size_t n, double q);

/// \brief True when the `q` percentile of `n` samples has at least
/// `min_beyond` samples beyond it (p99 needs n >= 1000).
bool PercentileSupported(size_t n, double q, size_t min_beyond = 10);

/// \brief Median of unsorted values (the mean of the middle two for an
/// even count). Empty input gives 0.
double Median(std::vector<double> values);

/// \brief Nearest-rank `q` quantile of unsorted values; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// \brief Log-linear histogram of positive values: 64 linear sub-buckets
/// per power of two, so a bucket is at most 1/64 of its value wide.
/// Fixed size (no allocation per sample); mergeable.
class LogHistogram {
 public:
  LogHistogram();

  void Add(double value);
  void Merge(const LogHistogram& other);
  uint64_t count() const { return count_; }

  /// Nearest-rank `q` percentile, interpolated linearly within the bucket
  /// that holds that rank. 0 when empty.
  double Percentile(double q) const;

 private:
  static size_t Index(double value);
  static double LowerBound(size_t index);

  std::vector<uint32_t> buckets_;
  uint64_t count_ = 0;
};

/// \brief Latencies and completions of one run, bucketed by fixed windows of
/// its timeline.
class WindowedLatency {
 public:
  explicit WindowedLatency(double window_s) : window_s_(window_s) {}

  /// Records one operation sent `offset_s` after the start.
  void Add(double offset_s, double latency_us, bool ok);
  void Merge(const WindowedLatency& other);

  uint64_t count() const;
  size_t windows() const { return histograms_.size(); }

  /// The `q` quantile, over the first `windows` windows, of successful
  /// operations per second.
  double RateQuantile(size_t windows, double q) const;
  /// The `q` quantile over windows of the `percentile` latency. Consecutive
  /// windows are merged into groups just large enough for the percentile to
  /// have ten samples beyond it; 0 when even the whole run is too small.
  double PercentileQuantile(double percentile, double q) const;

 private:
  double window_s_;
  std::vector<LogHistogram> histograms_;
  std::vector<uint64_t> ok_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
