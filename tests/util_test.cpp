// Utility tests: RNG determinism and distribution sanity, accumulators,
// histograms, formatting helpers, Result/Error plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sc::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRangeAndCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rng.Below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool hit_lo = false;
  bool hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) hit_lo = true;
    if (v == 3) hit_hi = true;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Accumulator, Moments) {
  Accumulator acc;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram hist(0.0, 10.0, 5);
  hist.Add(-1.0);   // clamps to first
  hist.Add(0.5);
  hist.Add(3.0);
  hist.Add(9.9);
  hist.Add(50.0);   // clamps to last
  EXPECT_EQ(hist.total(), 5u);
  EXPECT_EQ(hist.bucket_count(0), 2u);
  EXPECT_EQ(hist.bucket_count(1), 1u);
  EXPECT_EQ(hist.bucket_count(4), 2u);
  EXPECT_DOUBLE_EQ(hist.bucket_low(1), 2.0);
  EXPECT_FALSE(hist.ToAscii().empty());
}

TEST(Histogram, Percentile) {
  Histogram hist(0.0, 100.0, 100);
  EXPECT_DOUBLE_EQ(hist.Percentile(50), 0.0);  // empty -> lo
  for (int i = 0; i < 100; ++i) hist.Add(i + 0.5);  // one per bucket
  // Uniform fill: percentile p lands at ~p% of the range.
  EXPECT_NEAR(hist.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(hist.Percentile(95), 95.0, 1.0);
  EXPECT_NEAR(hist.Percentile(99), 99.0, 1.0);
  EXPECT_NEAR(hist.Percentile(0), 0.0, 1.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), 100.0);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(hist.Percentile(-5), hist.Percentile(0));
  EXPECT_DOUBLE_EQ(hist.Percentile(150), hist.Percentile(100));
  // Skewed mass: everything in one bucket pins every percentile there.
  Histogram spike(0.0, 10.0, 10);
  for (int i = 0; i < 1000; ++i) spike.Add(3.5);
  EXPECT_GE(spike.Percentile(1), 3.0);
  EXPECT_LE(spike.Percentile(99), 4.0);
  // Percentiles are monotone in p.
  EXPECT_LE(spike.Percentile(10), spike.Percentile(90));
}

// Host-time histograms must resolve both ends of a miss: sub-microsecond
// service times and over-1-ms stalls. With log2 buckets the estimated p50
// and p99 land in the truth's bucket or a neighbour.
TEST(Histogram, Log2ResolvesSubMicrosecondAndMilliseconds) {
  const auto bucket_of = [](double x) {
    return x < 1.0 ? 0 : std::ilogb(x) + 1;
  };
  const auto nearest_rank = [](std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
  };
  // 97% memo-hit-like samples between 300 and 900 ns, 3% stalls of 1.5 to
  // 40 ms.
  std::vector<double> samples;
  for (int i = 0; i < 970; ++i) samples.push_back(300.0 + (i * 37) % 600);
  for (int i = 0; i < 30; ++i) samples.push_back(1.5e6 + i * 1.3e6);
  Histogram hist = Histogram::Log2(kHostNsBuckets);
  for (double x : samples) hist.Add(x);
  EXPECT_EQ(hist.total(), samples.size());
  for (double p : {50.0, 99.0}) {
    const double truth = nearest_rank(samples, p);
    const double est = hist.Percentile(p);
    EXPECT_LE(std::abs(bucket_of(est) - bucket_of(truth)), 1)
        << "p" << p << ": estimate " << est << " truth " << truth;
  }
  EXPECT_LT(hist.Percentile(50), 1000.0);
  EXPECT_GT(hist.Percentile(99), 1e6);
  // Bucket edges are powers of two; below 1 and beyond the top clamp.
  EXPECT_DOUBLE_EQ(hist.bucket_low(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.bucket_low(1), 1.0);
  EXPECT_DOUBLE_EQ(hist.bucket_low(11), 1024.0);
  Histogram edges = Histogram::Log2(4);  // [0,1) [1,2) [2,4) [4,inf)
  edges.Add(0.5);
  edges.Add(1.0);
  edges.Add(3.9);
  edges.Add(1e12);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(edges.bucket_count(i), 1u) << i;
}

TEST(Format, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(1234567890), "1,234,567,890");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(ResultType, ValueAndError) {
  Result<int> ok_result(5);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 5);

  Result<int> err_result(Error{"boom", "file.mc", 3, 7});
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.error().ToString(), "file.mc:3:7: boom");

  const Error bare{"plain"};
  EXPECT_EQ(bare.ToString(), "plain");
  const Error no_col{"msg", "f", 2, 0};
  EXPECT_EQ(no_col.ToString(), "f:2: msg");
}

TEST(StatusType, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status bad = Error{"nope"};
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

}  // namespace
}  // namespace sc::util
