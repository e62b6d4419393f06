// Unit and property tests for src/util: Status/Result, RNG, Zipf sampler,
// hashing, min-max scaler, and moving statistics.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/hashing.h"
#include "util/minmax_scaler.h"
#include "util/moving_stats.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/zipf.h"

namespace latest::util {
namespace {

// --------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(StatusTest, EveryCodeHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

Status FailingHelper() { return Status::OutOfRange("nope"); }
Status PropagationSite() {
  LATEST_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(PropagationSite().code(), StatusCode::kOutOfRange);
}

// --------------------------------------------------------------------
// Rng

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.NextBounded(10)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  constexpr int kN = 100000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(RngTest, GaussianShifted) {
  Rng rng(5);
  constexpr int kN = 50000;
  double sum = 0.0;
  for (int i = 0; i < kN; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(11);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.NextBool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

// --------------------------------------------------------------------
// Zipf

TEST(ZipfTest, RanksWithinSupport) {
  ZipfSampler zipf(100, 1.0, 42);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(), 100u);
}

TEST(ZipfTest, ProbabilitiesSumToOne) {
  ZipfSampler zipf(1000, 1.2, 42);
  double total = 0.0;
  for (uint64_t k = 0; k < 1000; ++k) total += zipf.Probability(k);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, HeadIsMoreFrequentThanTail) {
  ZipfSampler zipf(1000, 1.0, 42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.Next()];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500] - 5);  // Allow tail noise.
  EXPECT_GT(counts[0], 100000 / 1000);     // Far above uniform share.
}

TEST(ZipfTest, EmpiricalMatchesTheoretical) {
  ZipfSampler zipf(50, 1.0, 7);
  std::vector<int> counts(50, 0);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[zipf.Next()];
  for (uint64_t k = 0; k < 5; ++k) {
    const double expected = zipf.Probability(k);
    const double observed = static_cast<double>(counts[k]) / kN;
    EXPECT_NEAR(observed, expected, expected * 0.1 + 0.002);
  }
}

TEST(ZipfTest, SkewZeroIsUniform) {
  ZipfSampler zipf(10, 0.0, 7);
  for (uint64_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(zipf.Probability(k), 0.1, 1e-9);
  }
}

// Property sweep: distribution is normalized for a range of skews.
class ZipfSkewTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfSkewTest, NormalizedAndMonotone) {
  const double skew = GetParam();
  ZipfSampler zipf(256, skew, 99);
  double total = 0.0;
  double prev = 1.0;
  for (uint64_t k = 0; k < 256; ++k) {
    const double p = zipf.Probability(k);
    EXPECT_LE(p, prev + 1e-12);  // Non-increasing in rank.
    total += p;
    prev = p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2, 2.0));

// --------------------------------------------------------------------
// Hashing

TEST(HashingTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(HashingTest, SeededHashFamiliesDiffer) {
  EXPECT_NE(SeededHash(42, 1), SeededHash(42, 2));
  EXPECT_EQ(SeededHash(42, 1), SeededHash(42, 1));
}

TEST(HashingTest, HashToUnitInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = HashToUnit(rng.Next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(HashingTest, HashToUnitIsRoughlyUniform) {
  int buckets[10] = {};
  for (uint64_t i = 0; i < 100000; ++i) {
    ++buckets[static_cast<int>(HashToUnit(Mix64(i)) * 10)];
  }
  for (int b : buckets) EXPECT_NEAR(b, 10000, 500);
}

// --------------------------------------------------------------------
// MinMaxScaler

TEST(MinMaxScalerTest, EmptyScalesToHalf) {
  MinMaxScaler s;
  EXPECT_DOUBLE_EQ(s.Scale(123.0), 0.5);
}

TEST(MinMaxScalerTest, SingleValueDegenerateRange) {
  MinMaxScaler s;
  s.Observe(10.0);
  EXPECT_DOUBLE_EQ(s.Scale(10.0), 0.5);
}

TEST(MinMaxScalerTest, ScalesLinearly) {
  MinMaxScaler s;
  s.Observe(0.0);
  s.Observe(10.0);
  EXPECT_DOUBLE_EQ(s.Scale(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Scale(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.Scale(10.0), 1.0);
}

TEST(MinMaxScalerTest, ClampsOutliers) {
  MinMaxScaler s;
  s.Observe(0.0);
  s.Observe(1.0);
  EXPECT_DOUBLE_EQ(s.Scale(-5.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Scale(99.0), 1.0);
}

TEST(MinMaxScalerTest, RangeWidens) {
  MinMaxScaler s;
  s.Observe(5.0);
  s.Observe(6.0);
  s.Observe(0.0);
  s.Observe(10.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.Scale(5.0), 0.5);
}

TEST(MinMaxScalerTest, NegativeRangeScalesLinearly) {
  // Negative observations (e.g. signed error signals) must not break the
  // normalization used for alpha blending.
  MinMaxScaler s;
  s.Observe(-10.0);
  s.Observe(10.0);
  EXPECT_DOUBLE_EQ(s.Scale(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Scale(0.0), 0.5);
  EXPECT_DOUBLE_EQ(s.Scale(10.0), 1.0);
}

// --------------------------------------------------------------------
// MovingAverage / Ewma

TEST(MovingAverageTest, EmptyMeanIsZero) {
  MovingAverage m(4);
  EXPECT_DOUBLE_EQ(m.Mean(), 0.0);
  EXPECT_FALSE(m.full());
}

TEST(MovingAverageTest, PartialWindow) {
  MovingAverage m(4);
  m.Add(2.0);
  m.Add(4.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 3.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MovingAverageTest, EvictsOldest) {
  MovingAverage m(3);
  m.Add(1.0);
  m.Add(2.0);
  m.Add(3.0);
  EXPECT_TRUE(m.full());
  m.Add(10.0);  // Evicts 1.0.
  EXPECT_DOUBLE_EQ(m.Mean(), 5.0);
}

TEST(MovingAverageTest, LongStreamMatchesNaive) {
  MovingAverage m(16);
  Rng rng(3);
  std::vector<double> window;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    m.Add(v);
    window.push_back(v);
    if (window.size() > 16) window.erase(window.begin());
    const double naive =
        std::accumulate(window.begin(), window.end(), 0.0) / window.size();
    ASSERT_NEAR(m.Mean(), naive, 1e-9);
  }
}

TEST(MovingAverageTest, ResetEmpties) {
  MovingAverage m(4);
  m.Add(1.0);
  m.Reset();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_DOUBLE_EQ(m.Mean(), 0.0);
}

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotonic) {
  Stopwatch watch;
  const double first = watch.ElapsedMillis();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(watch.ElapsedMillis(), first);
  EXPECT_GE(watch.ElapsedNanos(), 0);
}

TEST(StopwatchTest, RestartShrinksElapsed) {
  Stopwatch watch;
  // Burn a little time so the pre-restart reading is strictly positive.
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  const double before = watch.ElapsedNanos();
  watch.Restart();
  EXPECT_LE(watch.ElapsedNanos(), before);
}

TEST(EwmaTest, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  EXPECT_DOUBLE_EQ(e.Value(7.0), 7.0);  // Fallback before seeding.
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.Value(), 10.0);
}

TEST(EwmaTest, Blends) {
  Ewma e(0.5);
  e.Add(10.0);
  e.Add(0.0);
  EXPECT_DOUBLE_EQ(e.Value(), 5.0);
  e.Add(5.0);
  EXPECT_DOUBLE_EQ(e.Value(), 5.0);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.2);
  e.Add(0.0);
  for (int i = 0; i < 100; ++i) e.Add(3.0);
  EXPECT_NEAR(e.Value(), 3.0, 1e-6);
}

}  // namespace
}  // namespace latest::util
