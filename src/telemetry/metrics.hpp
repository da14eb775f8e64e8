#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace clove::telemetry {

/// Metric label set, e.g. {{"link", "L1->S2"}, {"scheme", "clove-ecn"}}.
/// Canonicalized (sorted by key) when used to identify a registry cell.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter cell. The MetricsRegistry owns its cells, which stay
/// valid for the registry's lifetime, so a recording site resolves its cell
/// once and does a plain add on the hot path, guarded by enabled().
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  std::uint64_t v_{0};
};

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

/// Registry cells are counters and histograms; gauges (high-watermarks) only
/// appear in snapshots collected from component stats.
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

/// Named, labeled metric cells with get-or-create registration and a
/// snapshot/export API, for values no component keeps itself (the TCP RTT
/// distribution). Lookups happen once per recording site; the hot path
/// touches only the returned cell. Values survive reset_values() as zeroed
/// cells, so resolved pointers never dangle across runs.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const Labels& labels = {});
  Histogram* histogram(const std::string& name, const Labels& labels = {});

  /// Zero every cell (start of a run). The cells remain registered.
  void reset_values();
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind;
    Counter counter;
    Histogram histogram;
  };
  Entry* get_or_create(MetricKind kind, const std::string& name,
                       const Labels& labels);

  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace clove::telemetry
