#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace mcs::util {
namespace {

TEST(OnlineMoments, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.5, -3.0, 7.25, 0.0, 4.5};
  OnlineMoments m;
  for (double x : xs) m.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(m.count(), xs.size());
  EXPECT_NEAR(m.mean(), mean, 1e-12);
  EXPECT_NEAR(m.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(m.min(), -3.0);
  EXPECT_DOUBLE_EQ(m.max(), 7.25);
}

TEST(OnlineMoments, EmptyAndSingle) {
  OnlineMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  m.add(5.0);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(OnlineMoments, MergeEqualsSequential) {
  Rng rng(1);
  OnlineMoments all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10 - 5;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(OnlineMoments, MergeWithEmpty) {
  OnlineMoments a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // no-op
  EXPECT_NEAR(a.mean(), mean, 1e-15);
  b.merge(a);  // copy
  EXPECT_NEAR(b.mean(), mean, 1e-15);
}

TEST(StudentT, TableValues) {
  EXPECT_DOUBLE_EQ(student_t_975(1), 12.706);
  EXPECT_DOUBLE_EQ(student_t_975(10), 2.228);
  EXPECT_DOUBLE_EQ(student_t_975(30), 2.042);
  EXPECT_NEAR(student_t_975(1000), 1.9623, 5e-4);
  EXPECT_DOUBLE_EQ(student_t_975(0), 0.0);
}

TEST(StudentT, BeyondTableMatchesTrueQuantiles) {
  // Regression (df > table boundary): the old fallback returned the bare
  // normal quantile 1.960 for every df > 30 — 4% low at df = 31, biasing
  // every CI built from a few dozen batches or replications. Reference
  // values from R's qt(0.975, df).
  EXPECT_NEAR(student_t_975(31), 2.0395, 1e-3);
  EXPECT_NEAR(student_t_975(40), 2.0211, 1e-3);
  EXPECT_NEAR(student_t_975(60), 2.0003, 1e-3);
  EXPECT_NEAR(student_t_975(120), 1.9799, 1e-3);
  // Monotone decreasing toward the normal quantile, never below it.
  double prev = student_t_975(30);
  for (std::uint64_t df = 31; df <= 400; ++df) {
    const double t = student_t_975(df);
    EXPECT_LT(t, prev) << "df=" << df;
    EXPECT_GT(t, 1.9599) << "df=" << df;
    prev = t;
  }
}

TEST(BatchMeans, ConstantSequenceHasZeroWidth) {
  BatchMeans bm(10);
  for (int i = 0; i < 100; ++i) bm.add(3.5);
  const ConfidenceInterval ci = bm.interval();
  EXPECT_DOUBLE_EQ(ci.mean, 3.5);
  EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
  EXPECT_TRUE(ci.contains(3.5));
}

TEST(BatchMeans, CoversTrueMeanOfIidStream) {
  Rng rng(2);
  BatchMeans bm(500);
  for (int i = 0; i < 100000; ++i) bm.add(rng.exponential(0.5));  // mean 2
  const ConfidenceInterval ci = bm.interval();
  EXPECT_NEAR(ci.mean, 2.0, 0.1);
  EXPECT_GT(ci.half_width, 0.0);
  EXPECT_LT(ci.half_width, 0.2);
  EXPECT_TRUE(ci.contains(2.0));
}

TEST(BatchMeans, FewSamplesNoInterval) {
  BatchMeans bm(1000);
  bm.add(1.0);
  EXPECT_EQ(bm.completed_batches(), 0u);
  EXPECT_EQ(bm.interval_batches(), 0u);
  EXPECT_DOUBLE_EQ(bm.interval().half_width, 0.0);
  EXPECT_DOUBLE_EQ(bm.interval().mean, 1.0);
}

TEST(BatchMeans, PartialTrailingBatchIsNotSilentlyDropped) {
  // Regression: 1999 observations in 1000-wide batches used to yield ONE
  // completed batch and therefore no interval at all (half-width 0 reads
  // as "converged exactly"). The 999-observation trailing batch is at
  // least half full and must participate.
  Rng rng(7);
  BatchMeans bm(1000);
  for (int i = 0; i < 1999; ++i) bm.add(rng.exponential(0.5));
  EXPECT_EQ(bm.completed_batches(), 1u);
  EXPECT_EQ(bm.interval_batches(), 2u);
  EXPECT_GT(bm.interval().half_width, 0.0);
}

TEST(BatchMeans, SliverPartialBatchStaysExcluded) {
  // A partial batch below half full would only add noise: 2100
  // observations in 1000-wide batches keeps the 100-observation tail out.
  Rng rng(8);
  BatchMeans bm(1000);
  for (int i = 0; i < 2100; ++i) bm.add(rng.exponential(0.5));
  EXPECT_EQ(bm.completed_batches(), 2u);
  EXPECT_EQ(bm.interval_batches(), 2u);

  // The half-full boundary itself participates (500 of 1000).
  BatchMeans at_half(1000);
  for (int i = 0; i < 2500; ++i) at_half.add(rng.exponential(0.5));
  EXPECT_EQ(at_half.completed_batches(), 2u);
  EXPECT_EQ(at_half.interval_batches(), 3u);
}

TEST(BatchMeans, PartialBatchIntervalMatchesExplicitThreeBatches) {
  // The mean stays the total mean; the half-width must equal a t-interval
  // over the three batch means (two full + the half-full trailing one).
  BatchMeans bm(4);
  const double xs[] = {1, 1, 1, 1, 3, 3, 3, 3, 5, 5};
  OnlineMoments batch_means;
  for (double x : xs) bm.add(x);
  batch_means.add(1.0);
  batch_means.add(3.0);
  batch_means.add(5.0);
  const ConfidenceInterval expect = t_interval(batch_means);
  const ConfidenceInterval got = bm.interval();
  EXPECT_DOUBLE_EQ(got.half_width, expect.half_width);
  EXPECT_DOUBLE_EQ(got.mean, 2.6);  // total mean over all 10 observations
}

TEST(BatchMeans, LastBatchMeanIsTheMostRecentCompletedBatch) {
  BatchMeans bm(4);
  EXPECT_DOUBLE_EQ(bm.last_batch_mean(), 0.0);
  for (double x : {1.0, 1.0, 1.0, 1.0, 3.0, 5.0}) bm.add(x);
  EXPECT_DOUBLE_EQ(bm.last_batch_mean(), 1.0);  // {3, 5} is still partial
  for (double x : {3.0, 5.0}) bm.add(x);
  EXPECT_DOUBLE_EQ(bm.last_batch_mean(), 4.0);
}

// --- DriftTest: the online latency-drift verdict -------------------------

/// Batch count at which the test first fires on `ys`; 0 when it never does.
std::size_t first_fire(const std::vector<double>& ys) {
  DriftTest test;
  for (std::size_t k = 0; k < ys.size(); ++k)
    if (test.add(ys[k])) return k + 1;
  return 0;
}

double standard_normal(Rng& rng) {  // Box-Muller
  constexpr double kTwoPi = 6.283185307179586;
  return std::sqrt(-2.0 * std::log(rng.next_double_open_low())) *
         std::cos(kTwoPi * rng.next_double());
}

TEST(DriftTest, StationaryAr1NeverFires) {
  // phi = 0.9 mimics the strongly autocorrelated batch means of a
  // near-knee run: the OLS t-statistic alone is badly inflated on such a
  // stream (long excursions look like trends), so this pins the need for
  // the magnitude bound. Level 100, stationary sd 15, started in steady
  // state (DESIGN.md §11.5 gives the false-fire rate against the sd).
  constexpr double kPhi = 0.9, kLevel = 100.0, kSd = 15.0;
  const double innovation = kSd * std::sqrt(1.0 - kPhi * kPhi);
  int t_alone_would_fire = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<double> ys;
    double dev = kSd * standard_normal(rng);
    for (int k = 0; k < 100; ++k) {
      ys.push_back(kLevel + dev);
      dev = kPhi * dev + innovation * standard_normal(rng);
    }
    EXPECT_EQ(first_fire(ys), 0u) << "seed " << seed;

    // The same stream under the t-bound alone: refit after every batch.
    for (std::size_t n = DriftTest::kMinBatches; n <= ys.size(); ++n) {
      const auto m = static_cast<double>(n);
      const double k_mean = (m - 1.0) / 2.0;
      double y_mean = 0.0;
      for (std::size_t k = 0; k < n; ++k) y_mean += ys[k] / m;
      double sxx = 0.0, sxy = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sxx += (static_cast<double>(k) - k_mean) *
               (static_cast<double>(k) - k_mean);
        sxy += (static_cast<double>(k) - k_mean) * (ys[k] - y_mean);
      }
      const double b = sxy / sxx;
      double rss = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        const double r =
            ys[k] - y_mean - b * (static_cast<double>(k) - k_mean);
        rss += r * r;
      }
      if (b / std::sqrt(rss / (m - 2.0) / sxx) > DriftTest::kMinT) {
        ++t_alone_would_fire;
        break;
      }
    }
  }
  EXPECT_GT(t_alone_would_fire, 0)
      << "the AR(1) stream no longer exercises the magnitude bound";
}

TEST(DriftTest, StartUpTransientOntoAFlatLevelNeverFires) {
  // The near-knee warm-up shape: the measured stream starts below its
  // level (queues still filling) or above it (a burst draining), and the
  // gap decays exponentially onto a flat level, with iid noise.
  for (double gap : {-0.5, 2.0}) {
    for (double tau : {1.0, 3.0, 10.0, 30.0}) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        std::vector<double> ys;
        for (int k = 0; k < 100; ++k)
          ys.push_back(100.0 * (1.0 + gap * std::exp(-k / tau)) +
                       5.0 * standard_normal(rng));
        EXPECT_EQ(first_fire(ys), 0u)
            << "gap " << gap << " tau " << tau << " seed " << seed;
      }
    }
  }
}

TEST(DriftTest, LinearRampFiresAtTheFifthBatch) {
  // Latency climbing by its own starting level every batch: queues
  // growing without bound. The test is not evaluated before kMinBatches.
  Rng rng(3);
  std::vector<double> ys;
  for (int k = 0; k < 20; ++k)
    ys.push_back(100.0 * (k + 1) + 5.0 * standard_normal(rng));
  EXPECT_EQ(first_fire(ys), DriftTest::kMinBatches);
  EXPECT_EQ(DriftTest::kMinBatches, 5u);
}

TEST(DriftTest, ConstantStreamNeverFires) {
  EXPECT_EQ(first_fire(std::vector<double>(100, 19.7)), 0u);
  EXPECT_EQ(first_fire(std::vector<double>(100, 0.0)), 0u);
}

TEST(DriftTest, ExactLineFiresOnceItsRiseExceedsItsLevel) {
  // se_b = 0 reads as t = +infinity, so only the magnitude bound decides:
  // y_k = 100 + 10 k has fitted rise 10 (K-1) against mean
  // 100 + 5 (K-1), which first exceeds it at K = 22.
  std::vector<double> ys;
  for (int k = 0; k < 40; ++k) ys.push_back(100.0 + 10.0 * k);
  EXPECT_EQ(first_fire(ys), 22u);
  // Steep enough to pass the magnitude bound at once.
  std::vector<double> steep;
  for (int k = 0; k < 10; ++k) steep.push_back(10.0 * (k + 1));
  EXPECT_EQ(first_fire(steep), DriftTest::kMinBatches);
  // A falling line never fires.
  std::vector<double> falling;
  for (int k = 0; k < 40; ++k) falling.push_back(1000.0 - 10.0 * k);
  EXPECT_EQ(first_fire(falling), 0u);
}

TEST(DriftTest, VerdictIsFinal) {
  DriftTest test;
  for (int k = 0; k < 5; ++k) test.add(10.0 * (k + 1));
  ASSERT_TRUE(test.fired());
  for (int k = 0; k < 50; ++k) EXPECT_TRUE(test.add(1.0));
}

TEST(PercentileInplace, MatchesSortedOrderStatistics) {
  // 0..100 shuffled: type-7 quantiles are exact on the integer lattice.
  std::vector<double> xs;
  for (int i = 100; i >= 0; --i) xs.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 1.0), 100.0);
}

TEST(PercentileInplace, InterpolatesBetweenOrderStatistics) {
  std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  // h = 0.5 * 3 = 1.5 -> halfway between the 2nd and 3rd order statistic.
  EXPECT_DOUBLE_EQ(percentile_inplace(xs, 0.5), 2.5);
  std::vector<double> one = {7.0};
  EXPECT_DOUBLE_EQ(percentile_inplace(one, 0.99), 7.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile_inplace(empty, 0.5), 0.0);
}

}  // namespace
}  // namespace mcs::util
