#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace sc::util {

void Accumulator::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::min() const {
  SC_CHECK_GT(count_, 0u);
  return min_;
}

double Accumulator::max() const {
  SC_CHECK_GT(count_, 0u);
  return max_;
}

double Accumulator::mean() const {
  SC_CHECK_GT(count_, 0u);
  return mean_;
}

double Accumulator::variance() const {
  SC_CHECK_GT(count_, 0u);
  return m2_ / static_cast<double>(count_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, int buckets) : lo_(lo), hi_(hi) {
  SC_CHECK_LT(lo, hi);
  SC_CHECK_GT(buckets, 0);
  counts_.resize(static_cast<size_t>(buckets), 0);
}

Histogram Histogram::Log2(int buckets) {
  Histogram hist(0.0, std::ldexp(1.0, buckets - 1), buckets);
  hist.log2_ = true;
  return hist;
}

void Histogram::Add(double x) {
  if (log2_) {
    const int last = static_cast<int>(counts_.size()) - 1;
    // NaN and everything below 1 land in bucket 0.
    const int i = !(x >= 1.0) ? 0 : x >= hi_ ? last : std::ilogb(x) + 1;
    ++counts_[static_cast<size_t>(i)];
    ++total_;
    return;
  }
  const double span = hi_ - lo_;
  int i = static_cast<int>((x - lo_) / span * static_cast<double>(counts_.size()));
  i = std::clamp(i, 0, static_cast<int>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(i)];
  ++total_;
}

double Histogram::bucket_low(int i) const {
  if (log2_) return i == 0 ? 0.0 : std::ldexp(1.0, i - 1);
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::Percentile(double p) const {
  if (total_ == 0) return lo_;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(total_);
  uint64_t cumulative = 0;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    const uint64_t count = counts_[i];
    if (count == 0) continue;
    if (static_cast<double>(cumulative + count) >= rank) {
      // Interpolate within this bucket by the fraction of rank it covers.
      const double into =
          std::clamp((rank - static_cast<double>(cumulative)) /
                         static_cast<double>(count),
                     0.0, 1.0);
      if (log2_) {
        const double low = bucket_low(static_cast<int>(i));
        return low + (std::ldexp(1.0, static_cast<int>(i)) - low) * into;
      }
      return lo_ + width * (static_cast<double>(i) + into);
    }
    cumulative += count;
  }
  return hi_;
}

std::string Histogram::ToAscii(int max_width) const {
  uint64_t peak = 1;
  for (uint64_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (int i = 0; i < buckets(); ++i) {
    const int width =
        static_cast<int>(static_cast<double>(counts_[static_cast<size_t>(i)]) /
                         static_cast<double>(peak) * max_width);
    std::snprintf(line, sizeof line, "%10.3f | ", bucket_low(i));
    out += line;
    out.append(static_cast<size_t>(width), '#');
    std::snprintf(line, sizeof line, " %llu\n",
                  static_cast<unsigned long long>(counts_[static_cast<size_t>(i)]));
    out += line;
  }
  return out;
}

std::string WithCommas(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  const int len = static_cast<int>(digits.size());
  for (int i = 0; i < len; ++i) {
    if (i > 0 && (len - i) % 3 == 0) out += ',';
    out += digits[static_cast<size_t>(i)];
  }
  return out;
}

std::string HumanBytes(uint64_t n) {
  char buf[64];
  if (n < 1024) {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(n));
  } else if (n < 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1f KB", static_cast<double>(n) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f MB", static_cast<double>(n) / (1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace sc::util
