#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace mcs::util {

void OnlineMoments::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineMoments::variance() const {
  return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineMoments::stddev() const { return std::sqrt(variance()); }

void OnlineMoments::merge(const OnlineMoments& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double student_t_975(std::uint64_t df) {
  // Two-sided 95% (upper 97.5% point). Exact-to-3dp table for small df,
  // then the Cornish-Fisher expansion of the t quantile around the normal
  // quantile z: accurate to ~1e-4 for df > 30 (the bare z = 1.960 it
  // replaced was off by 4% at df = 31, understating every CI with a few
  // dozen batches or replications).
  static constexpr double kTable[] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262,  2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110,
      2.101,  2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
      2.052,  2.048,  2.045, 2.042};
  if (df == 0) return 0.0;
  if (df <= 30) return kTable[df];
  constexpr double z = 1.959963984540054;  // Phi^-1(0.975)
  constexpr double z3 = z * z * z;
  constexpr double z5 = z3 * z * z;
  constexpr double z7 = z5 * z * z;
  const double d = static_cast<double>(df);
  return z + (z3 + z) / (4.0 * d) +
         (5.0 * z5 + 16.0 * z3 + 3.0 * z) / (96.0 * d * d) +
         (3.0 * z7 + 19.0 * z5 + 17.0 * z3 - 15.0 * z) /
             (384.0 * d * d * d);
}

ConfidenceInterval t_interval(const OnlineMoments& moments) {
  ConfidenceInterval ci;
  ci.mean = moments.mean();
  if (moments.count() >= 2) {
    const double se =
        moments.stddev() / std::sqrt(static_cast<double>(moments.count()));
    ci.half_width = student_t_975(moments.count() - 1) * se;
  }
  return ci;
}

double relative_half_width(const OnlineMoments& moments) {
  if (moments.count() < 2 || moments.mean() == 0.0)
    return std::numeric_limits<double>::infinity();
  const ConfidenceInterval ci = t_interval(moments);
  return ci.half_width / std::abs(ci.mean);
}

Mser5Result mser5_cutoff(std::span<const double> xs, std::size_t batch) {
  MCS_EXPECTS(batch > 0);
  Mser5Result result;
  const std::size_t n_b = xs.size() / batch;
  if (n_b < 8) {
    // Fewer than 8 batch means: the d-scan would be fitting noise.
    result.undetermined = true;
    return result;
  }

  std::vector<double> means(n_b);
  for (std::size_t i = 0; i < n_b; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < batch; ++j) sum += xs[i * batch + j];
    means[i] = sum / static_cast<double>(batch);
  }

  // Suffix sums make every z(d) O(1):
  //   z(d) = [S2(d) - S1(d)^2 / (n_b - d)] / (n_b - d)^2.
  std::vector<double> s1(n_b + 1, 0.0), s2(n_b + 1, 0.0);
  for (std::size_t i = n_b; i-- > 0;) {
    s1[i] = s1[i + 1] + means[i];
    s2[i] = s2[i + 1] + means[i] * means[i];
  }

  const std::size_t d_max = n_b / 2;
  std::size_t best_d = 0;
  double best_z = std::numeric_limits<double>::infinity();
  for (std::size_t d = 0; d <= d_max; ++d) {
    const double remaining = static_cast<double>(n_b - d);
    const double ss = s2[d] - s1[d] * s1[d] / remaining;
    const double z = std::max(ss, 0.0) / (remaining * remaining);
    if (z < best_z) {
      best_z = z;
      best_d = d;
    }
  }
  result.cutoff = best_d * batch;
  result.undetermined = best_d == d_max;
  return result;
}

BatchMeans::BatchMeans(std::size_t batch_size) : batch_size_(batch_size) {
  MCS_EXPECTS(batch_size > 0);
}

void BatchMeans::add(double x) {
  total_.add(x);
  batch_sum_ += x;
  if (++in_batch_ == batch_size_) {
    last_batch_mean_ = batch_sum_ / static_cast<double>(batch_size_);
    batches_.add(last_batch_mean_);
    ++batch_count_;
    in_batch_ = 0;
    batch_sum_ = 0.0;
  }
}

std::size_t BatchMeans::interval_batches() const {
  const bool partial_counts = in_batch_ >= (batch_size_ + 1) / 2;
  return batch_count_ + (partial_counts ? 1 : 0);
}

ConfidenceInterval BatchMeans::interval() const {
  ConfidenceInterval ci;
  ci.mean = total_.mean();
  // A trailing partial batch that is at least half full joins the batch
  // means (interval_batches decides; dropping it silently discarded up
  // to batch_size-1 observations and could leave a 2-batch stream with
  // no interval at all).
  OnlineMoments batches = batches_;
  if (interval_batches() > batch_count_)
    batches.add(batch_sum_ / static_cast<double>(in_batch_));
  if (batches.count() >= 2) {
    const double se =
        batches.stddev() / std::sqrt(static_cast<double>(batches.count()));
    ci.half_width = student_t_975(batches.count() - 1) * se;
  }
  return ci;
}

bool DriftTest::add(double batch_mean) {
  const auto k = static_cast<double>(batches_++);
  if (fired_) return true;
  sk_ += k;
  skk_ += k * k;
  sy_ += batch_mean;
  syy_ += batch_mean * batch_mean;
  sky_ += k * batch_mean;
  if (batches_ < kMinBatches) return false;

  const auto n = static_cast<double>(batches_);
  const double sxx = skk_ - sk_ * sk_ / n;
  const double sxy = sky_ - sk_ * sy_ / n;
  const double mean = sy_ / n;
  const double b = sxy / sxx;
  const double rss = std::max(syy_ - sy_ * mean - b * sxy, 0.0);
  const double se_b = std::sqrt(rss / (n - 2.0) / sxx);
  const bool significant = se_b > 0.0 ? b / se_b > kMinT : b > 0.0;
  fired_ = mean > 0.0 && significant && b * (n - 1.0) > kMinRise * mean;
  return fired_;
}

double percentile_inplace(std::vector<double>& xs, double q) {
  MCS_EXPECTS(q >= 0.0 && q <= 1.0);
  if (xs.empty()) return 0.0;
  // Type-7: the quantile sits at rank h = q * (n - 1) between the floor(h)
  // and floor(h)+1 order statistics.
  const double h = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  auto lo_it = xs.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(xs.begin(), lo_it, xs.end());
  const double below = *lo_it;
  const double frac = h - static_cast<double>(lo);
  if (frac == 0.0) return below;
  // The next order statistic is the minimum of the suffix nth_element
  // left above the pivot.
  const double above = *std::min_element(lo_it + 1, xs.end());
  return below + frac * (above - below);
}

}  // namespace mcs::util
