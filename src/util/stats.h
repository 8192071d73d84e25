// Small statistics helpers shared by benchmarks and reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sc::util {

// Streaming accumulator for count/min/max/mean/variance (Welford).
class Accumulator {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;
  double sum() const { return sum_; }

 private:
  uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
};

// Fixed-bucket histogram; out-of-range samples clamp to the first/last
// bucket. Used for eviction-rate timelines and latency spreads. Buckets are
// equal-width over [lo, hi), or powers of two (Log2) for quantities that
// span decades, such as host nanoseconds.
class Histogram {
 public:
  Histogram(double lo, double hi, int buckets);
  // Bucket 0 holds [0, 1) and bucket i >= 1 holds [2^(i-1), 2^i); the last
  // bucket also takes everything above. Every estimate is good to a factor
  // of two, from one unit up to 2^(buckets-2).
  static Histogram Log2(int buckets);

  void Add(double x);
  uint64_t bucket_count(int i) const { return counts_.at(i); }
  int buckets() const { return static_cast<int>(counts_.size()); }
  double bucket_low(int i) const;
  uint64_t total() const { return total_; }

  // Value at percentile p (0..100), linearly interpolated inside the bucket
  // where the cumulative count crosses p% of total. Returns lo for an empty
  // histogram. Samples clamped into the first/last bucket bound the result
  // by the histogram range, as with any fixed-bucket estimate.
  double Percentile(double p) const;

  // Renders a compact ASCII bar chart, one bucket per line.
  std::string ToAscii(int max_width = 50) const;

 private:
  double lo_;
  double hi_;  // Log2: the last bucket's upper edge, 2^(buckets-1)
  bool log2_ = false;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

// Log2 buckets for host-time histograms in nanoseconds: sub-microsecond
// service times and multi-millisecond stalls both resolve to a factor of
// two; only samples past 2^38 ns (about 275 s) clamp.
inline constexpr int kHostNsBuckets = 40;

// Formats n with thousands separators ("12,345,678") for report tables.
std::string WithCommas(uint64_t n);

// Formats a byte count with a human unit ("24.0 KB").
std::string HumanBytes(uint64_t n);

}  // namespace sc::util
