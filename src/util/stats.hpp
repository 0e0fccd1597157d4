// Online statistics for simulation output analysis: Welford moments,
// batch-means confidence intervals, MSER-5 initial-transient detection,
// the online latency-drift test, and the sequential-stopping precision
// measure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mcs::util {

/// Numerically stable running mean/variance (Welford's algorithm).
class OnlineMoments {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Merge another accumulator (parallel reduction; Chan et al.).
  void merge(const OnlineMoments& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided 95% Student-t critical value for the given degrees of freedom.
[[nodiscard]] double student_t_975(std::uint64_t df);

struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  // 95% two-sided
  [[nodiscard]] double lo() const { return mean - half_width; }
  [[nodiscard]] double hi() const { return mean + half_width; }
  /// True when `other` lies inside this interval.
  [[nodiscard]] bool contains(double other) const {
    return other >= lo() && other <= hi();
  }
};

/// 95% Student-t CI of the mean of the accumulated samples (half-width 0
/// with fewer than two). Used across independent replication means.
[[nodiscard]] ConfidenceInterval t_interval(const OnlineMoments& moments);

/// Relative 95% half-width of the t-interval over `moments`: half_width /
/// |mean|. This is the precision measure of the sequential stopping rule
/// (sim::run_replications_sequential): "stop once the CI half-width is
/// below `rel_precision` of the mean". Returns +infinity with fewer than
/// two samples or a zero mean, so an undecided state never reads as
/// converged.
[[nodiscard]] double relative_half_width(const OnlineMoments& moments);

/// Batch-means estimator: feeds observations into fixed-size batches and
/// derives a CI from the batch averages, absorbing serial correlation of
/// successive message latencies.
class BatchMeans {
 public:
  explicit BatchMeans(std::size_t batch_size = 1000);

  void add(double x);
  [[nodiscard]] std::uint64_t count() const { return total_.count(); }
  [[nodiscard]] double mean() const { return total_.mean(); }
  [[nodiscard]] std::size_t completed_batches() const {
    return batch_count_;
  }
  /// Mean of the most recently completed batch (0 before the first).
  [[nodiscard]] double last_batch_mean() const { return last_batch_mean_; }
  /// Batches entering interval(): the completed ones plus the trailing
  /// partial batch when it is at least half full (a near-complete batch
  /// carries real information; a sliver would only add noise).
  [[nodiscard]] std::size_t interval_batches() const;
  /// 95% CI from the interval_batches() batch means (half-width 0 with
  /// < 2 of them). The trailing partial batch participates per
  /// interval_batches() — previously it was silently dropped, so e.g.
  /// 1999 observations in 1000-wide batches yielded no interval at all.
  [[nodiscard]] ConfidenceInterval interval() const;

 private:
  std::size_t batch_size_;
  std::size_t in_batch_ = 0;
  double batch_sum_ = 0.0;
  std::size_t batch_count_ = 0;
  double last_batch_mean_ = 0.0;
  OnlineMoments batches_;
  OnlineMoments total_;
};

/// Outcome of the MSER-5 initial-transient scan (see mser5_cutoff).
struct Mser5Result {
  /// Observations to delete from the front (a multiple of the batch
  /// width); 0 when the stream looks stationary from the start.
  std::size_t cutoff = 0;
  /// True when the scan could not determine a trustworthy cutoff: the
  /// minimum landed on the half-data search bound (the transient may
  /// extend past the data collected — the run is too short), or the
  /// stream is shorter than the minimum the statistic needs. Callers
  /// should fall back to a fixed-fraction deletion.
  bool undetermined = false;
};

/// MSER-5 truncation rule (White's Marginal Standard Error Rule, the
/// standard warmup-deletion heuristic for steady-state simulation):
/// average the stream into batches of `batch` observations and pick the
/// truncation point d (in batches) minimizing
///     z(d) = sum_{i >= d} (Y_i - mean_d)^2 / (n_b - d)^2,
/// the variance of the remaining batch means penalized by the remaining
/// count — deleting transient-inflated batches shrinks the numerator
/// faster than the denominator until only steady-state noise is left.
/// The search stops at n_b/2 (a minimum beyond half the data means the
/// statistic is extrapolating, not measuring: `undetermined`).
[[nodiscard]] Mser5Result mser5_cutoff(std::span<const double> xs,
                                       std::size_t batch = 5);

/// Online test for upward drift of a stream of batch means (DESIGN.md
/// §11.5): the verdict that an offered load cannot be sustained, read
/// from the measured latencies alone. After each batch mean y_k
/// (k = 0..K-1) it updates, from O(1) running sums, the OLS slope b of
/// y_k against k, its standard error se_b, and the fitted rise over the
/// window relative to the window mean, g = b (K-1) / mean(y). With at
/// least kMinBatches batches it fires when
///     t = b / se_b > kMinT   and   g > kMinRise;
/// an exact upward line (se_b = 0, b > 0) reads as t = +infinity. The
/// t-bound alone would fire on stationary streams: batch means past
/// the knee, and near it, are strongly autocorrelated, so the OLS
/// standard error understates the slope's spread. The magnitude bound
/// asks for a rise larger than the level itself, which a stationary
/// stream or a start-up transient settling onto a flat level does not
/// produce. Once fired, the verdict is final.
class DriftTest {
 public:
  static constexpr std::size_t kMinBatches = 5;
  static constexpr double kMinT = 6.0;
  static constexpr double kMinRise = 1.0;

  /// Feed the next batch mean; returns fired().
  bool add(double batch_mean);
  [[nodiscard]] bool fired() const { return fired_; }
  /// Batch means read so far.
  [[nodiscard]] std::size_t batches() const { return batches_; }

 private:
  std::size_t batches_ = 0;
  // Running sums over (k, y_k): sum k, sum k^2, sum y, sum y^2, sum k*y.
  double sk_ = 0.0, skk_ = 0.0, sy_ = 0.0, syy_ = 0.0, sky_ = 0.0;
  bool fired_ = false;
};

/// Exact sample quantile with linear interpolation between order
/// statistics (type-7, the R/numpy default): q in [0, 1]. Partially sorts
/// `xs` in place (nth_element) — O(n), no full sort. Returns 0 for an
/// empty sample.
[[nodiscard]] double percentile_inplace(std::vector<double>& xs, double q);

}  // namespace mcs::util
