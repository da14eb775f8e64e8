#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace clove::telemetry {

/// Metric label set, e.g. {{"link", "L1->S2"}, {"scheme", "clove-ecn"}}, in
/// key order (MetricsSnapshot::find sorts its query to match).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Log-bucketed histogram: exponential buckets with kSubBuckets buckets per
/// octave (~9% relative resolution at 8/octave), a sparse bucket map, and
/// exact count/sum/min/max. percentile() interpolates inside the bucket, so
/// estimates stay within the bucket's relative width of the true value —
/// tested against stats::Samples in test_metrics.cpp.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;

  void observe(double v);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// p in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  void reset();

 private:
  static int bucket_index(double v);
  static double bucket_lower(int idx);

  std::map<int, std::uint64_t> buckets_;  ///< ordered for percentile walks
  std::uint64_t nonpositive_{0};          ///< v <= 0 observations
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported metric value.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind{MetricKind::kCounter};
  double value{0.0};  ///< counter (as double) or gauge value
  // Histogram-only fields.
  std::uint64_t count{0};
  double sum{0.0};
  double min{0.0};
  double max{0.0};
  double p50{0.0};
  double p99{0.0};
};

/// Point-in-time export of a run's metrics, sorted by (name, labels) for
/// deterministic artifacts.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const Labels& labels = {}) const;
  [[nodiscard]] double value_or(const std::string& name, double fallback,
                                const Labels& labels = {}) const;
  /// Sum of `value` across every label set of `name` (fabric-wide totals).
  [[nodiscard]] double sum_over(const std::string& name) const;
  [[nodiscard]] Json to_json() const;
};

}  // namespace clove::telemetry
