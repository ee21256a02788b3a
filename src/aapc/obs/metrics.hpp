// Unified metrics layer: one thread-safe registry of named series
// (monotonic counters, gauges, fixed-bucket histograms) shared by every
// subsystem, with hot-path recording that is a single relaxed atomic
// operation — no lock is ever taken on increment/observe.
//
// Design:
//  * Registration (Registry::counter/gauge/histogram) is mutex-guarded
//    and idempotent: the same (name, labels) pair always returns the
//    same instrument, so callers resolve handles once and record
//    lock-free afterwards. Instruments live behind unique_ptr in the
//    registry, so returned references stay valid for the registry's
//    lifetime.
//  * Series identity is the metric name plus its sorted label pairs,
//    following the Prometheus data model; names and label keys are
//    validated against the Prometheus charset, which also keeps the
//    series-key separators out of them.
//  * Reading is snapshot-based: Registry::snapshot() copies every
//    series into plain structs (RegistrySnapshot) which the exporter
//    and quantile extraction work from. Snapshots of concurrently
//    updated instruments are internally consistent per atomic word
//    (counts never go backwards) but are not a cross-series barrier.
//
// Metric-name conventions are documented in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace aapc::obs {

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// "counter" / "gauge" / "histogram" (the "type" field of the JSON
/// snapshot).
const char* metric_type_name(MetricType type);

/// Label pairs of one series, sorted by key (canonical order).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing count. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Mirrors an externally maintained monotonic total into this
  /// counter (used by subsystems that already keep their own counts,
  /// e.g. the schedule cache): the counter advances to `total` and
  /// never moves backwards, so concurrent mirrors of a monotonic
  /// source stay monotonic.
  void set_total(std::int64_t total) {
    std::int64_t current = value_.load(std::memory_order_relaxed);
    while (current < total && !value_.compare_exchange_weak(
                                  current, total, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A value that can go up and down (current depth, high-water mark,
/// utilization). Stored as the bit pattern of a double so set/add are
/// plain atomics without locks.
class Gauge {
 public:
  void set(double value) {
    bits_.store(to_bits(value), std::memory_order_relaxed);
  }
  void add(double delta) {
    std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(bits, to_bits(from_bits(bits) + delta),
                                        std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `value` if larger (high-water marks).
  void set_max(double value) {
    std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    while (from_bits(bits) < value &&
           !bits_.compare_exchange_weak(bits, to_bits(value),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return from_bits(bits_.load(std::memory_order_relaxed));
  }

 private:
  static std::uint64_t to_bits(double value);
  static double from_bits(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};  // bit pattern of 0.0
};

/// Plain-data copy of a histogram's state; quantile extraction and the
/// exporter work from this (also what the JSON snapshot parser
/// produces, so round-tripped snapshots expose the same API).
struct HistogramSnapshot {
  /// Finite upper bounds, ascending; bucket i counts observations
  /// <= bounds[i]. One implicit +Inf bucket follows.
  std::vector<double> bounds;
  /// bounds.size() + 1 entries (last is the +Inf bucket).
  std::vector<std::int64_t> buckets;
  std::int64_t count = 0;
  double sum = 0;
  double max = 0;

  /// Quantile estimate by linear interpolation inside the owning
  /// bucket (the standard fixed-bucket estimator); observations in the
  /// +Inf bucket resolve to the recorded maximum. q in [0, 1];
  /// returns 0 on an empty histogram.
  double quantile(double q) const;
};

/// Fixed-bucket histogram. observe() is a handful of relaxed atomic
/// operations (bucket increment, count, sum, max) — no locks.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);
  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  double max() const;
  /// See HistogramSnapshot::quantile.
  double quantile(double q) const { return snapshot_state().quantile(q); }
  HistogramSnapshot snapshot_state() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  // bounds_ + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};
  std::atomic<std::uint64_t> max_bits_{0};
};

/// 1-2-5 decade bounds from 1 microsecond to 10 seconds — the default
/// for latency/duration histograms.
std::vector<double> default_latency_bounds();

/// One series as plain data.
struct SeriesSnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::kCounter;
  Labels labels;
  /// Counter value (counters are integral end to end).
  std::int64_t counter = 0;
  /// Gauge value.
  double gauge = 0;
  /// Histogram state (type == kHistogram only).
  HistogramSnapshot histogram;

  /// counter or gauge value as a double (histograms: the sum).
  double number() const;
};

struct RegistrySnapshot {
  /// Registration order (stable across snapshots of one registry).
  std::vector<SeriesSnapshot> series;

  /// Series by exact (name, labels); nullptr when absent.
  const SeriesSnapshot* find(std::string_view name,
                             const Labels& labels = {}) const;
  /// find()->number(); 0 when absent.
  double value(std::string_view name, const Labels& labels = {}) const;
  /// Sum of number() over every series with this name (all label sets).
  double total(std::string_view name) const;
};

/// Thread-safe instrument registry. See file comment for the
/// concurrency model.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument registered under (name, labels), creating
  /// it on first use. Throws InvalidArgument on a malformed name/label
  /// or when the name is already registered with a different type (or,
  /// for histograms, different bounds).
  Counter& counter(std::string_view name, std::string_view help = "",
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = "",
                       std::vector<double> bounds = default_latency_bounds(),
                       Labels labels = {});

  RegistrySnapshot snapshot() const;
  std::size_t series_count() const;

 private:
  struct Series {
    std::string name;
    std::string help;
    MetricType type;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Series& find_or_create(std::string_view name, std::string_view help,
                         MetricType type, Labels&& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Series>> series_;
  /// (name + canonical labels) -> index in series_.
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace aapc::obs
