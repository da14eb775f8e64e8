#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace clove::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_index(double v) {
  // floor(log2(v) * kSubBuckets): each bucket spans a 2^(1/kSubBuckets)
  // ratio. Clamped to a generous range (2^-64 .. 2^64 covers ns..years and
  // bytes..exabytes for every metric we record).
  const double l = std::log2(v) * kSubBuckets;
  const double clamped = std::clamp(l, -64.0 * kSubBuckets, 64.0 * kSubBuckets);
  return static_cast<int>(std::floor(clamped));
}

double Histogram::bucket_lower(int idx) {
  return std::exp2(static_cast<double>(idx) / kSubBuckets);
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (v > 0.0) {
    ++buckets_[bucket_index(v)];
  } else {
    ++nonpositive_;
  }
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double target =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_ - 1);
  // The first `nonpositive_` ranks are <= 0; report min() for those.
  if (target < static_cast<double>(nonpositive_)) return std::min(min_, 0.0);
  double cum = static_cast<double>(nonpositive_);
  for (const auto& [idx, n] : buckets_) {
    const double next = cum + static_cast<double>(n);
    if (target < next) {
      // Interpolate linearly across the bucket span by rank position.
      const double lo = std::max(bucket_lower(idx), min_);
      const double hi = std::min(bucket_lower(idx + 1), max_);
      const double frac =
          n > 1 ? (target - cum) / static_cast<double>(n - 1) : 0.5;
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return max_;
}

void Histogram::reset() {
  buckets_.clear();
  nonpositive_ = 0;
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

const MetricSample* MetricsSnapshot::find(const std::string& name,
                                          const Labels& labels) const {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& s : samples) {
    if (s.name == name && s.labels == sorted) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(const std::string& name, double fallback,
                                 const Labels& labels) const {
  const MetricSample* s = find(name, labels);
  return s != nullptr ? s->value : fallback;
}

double MetricsSnapshot::sum_over(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : samples) {
    if (s.name == name) total += s.value;
  }
  return total;
}

Json MetricsSnapshot::to_json() const {
  Json arr = Json::array();
  for (const auto& s : samples) {
    Json m = Json::object();
    m.set("name", s.name);
    if (!s.labels.empty()) {
      Json l = Json::object();
      for (const auto& [k, v] : s.labels) l.set(k, v);
      m.set("labels", std::move(l));
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        m.set("type", "counter");
        m.set("value", s.value);
        break;
      case MetricKind::kGauge:
        m.set("type", "gauge");
        m.set("value", s.value);
        break;
      case MetricKind::kHistogram:
        m.set("type", "histogram");
        m.set("count", static_cast<double>(s.count));
        m.set("sum", s.sum);
        m.set("min", s.min);
        m.set("max", s.max);
        m.set("p50", s.p50);
        m.set("p99", s.p99);
        break;
    }
    arr.push_back(std::move(m));
  }
  return arr;
}

}  // namespace clove::telemetry
