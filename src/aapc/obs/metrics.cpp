#include "aapc/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "aapc/common/error.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::obs {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name[0])) return false;
  for (const char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_key(std::string_view key) {
  // Like a metric name but without ':' (reserved for recording rules).
  return valid_metric_name(key) && key.find(':') == std::string_view::npos;
}

/// Canonical series key: name + 0x1f-separated sorted label pairs
/// (0x1f/0x1e cannot appear in validated names/keys, and label values
/// are length-delimited by the separators).
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('\x1e');
    key.append(v);
  }
  return key;
}

}  // namespace

const char* metric_type_name(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

std::uint64_t Gauge::to_bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

double Gauge::from_bits(std::uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

double HistogramSnapshot::quantile(double q) const {
  AAPC_REQUIRE(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0, 1]");
  if (count <= 0) return 0;
  // Rank of the target observation (1-based), then walk the cumulative
  // bucket counts to the bucket that holds it.
  const double target = std::max(1.0, q * static_cast<double>(count));
  std::int64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::int64_t in_bucket = buckets[i];
    if (in_bucket <= 0) {
      continue;
    }
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i >= bounds.size()) return max;  // +Inf bucket
      const double upper = bounds[i];
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double into =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      // Never report beyond the recorded maximum (tight single-bucket
      // populations would otherwise overestimate).
      return std::min(lower + (upper - lower) * into, max);
    }
    cumulative += in_bucket;
  }
  return max;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  AAPC_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    AAPC_REQUIRE(std::isfinite(bounds_[i]),
                 "histogram bucket bounds must be finite");
    AAPC_REQUIRE(i == 0 || bounds_[i - 1] < bounds_[i],
                 "histogram bucket bounds must be strictly ascending");
  }
  buckets_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current = 0;
    std::memcpy(&current, &bits, sizeof current);
    const double next = current + value;
    std::uint64_t next_bits = 0;
    std::memcpy(&next_bits, &next, sizeof next_bits);
    if (sum_bits_.compare_exchange_weak(bits, next_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
  bits = max_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double current = 0;
    std::memcpy(&current, &bits, sizeof current);
    if (current >= value) break;
    std::uint64_t value_bits = 0;
    std::memcpy(&value_bits, &value, sizeof value_bits);
    if (max_bits_.compare_exchange_weak(bits, value_bits,
                                        std::memory_order_relaxed)) {
      break;
    }
  }
}

double Histogram::sum() const {
  const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

double Histogram::max() const {
  const std::uint64_t bits = max_bits_.load(std::memory_order_relaxed);
  double value = 0;
  std::memcpy(&value, &bits, sizeof value);
  return value;
}

HistogramSnapshot Histogram::snapshot_state() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count();
  snap.sum = sum();
  snap.max = max();
  return snap;
}

std::vector<double> default_latency_bounds() {
  // Literal decades, not accumulated multiplication: 1e-6 * 10 * ... is
  // off by an ulp from the decimal literal, which would leak as
  // 4.9999999999999996e-06 into the exported bounds.
  return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4,
          5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
          2e-1, 5e-1, 1.0,  2.0,  5.0,  10.0};
}

double SeriesSnapshot::number() const {
  switch (type) {
    case MetricType::kCounter: return static_cast<double>(counter);
    case MetricType::kGauge: return gauge;
    case MetricType::kHistogram: return histogram.sum;
  }
  return 0;
}

const SeriesSnapshot* RegistrySnapshot::find(std::string_view name,
                                             const Labels& labels) const {
  for (const SeriesSnapshot& s : series) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

double RegistrySnapshot::value(std::string_view name,
                               const Labels& labels) const {
  const SeriesSnapshot* s = find(name, labels);
  return s != nullptr ? s->number() : 0.0;
}

double RegistrySnapshot::total(std::string_view name) const {
  double sum = 0;
  for (const SeriesSnapshot& s : series) {
    if (s.name == name) sum += s.number();
  }
  return sum;
}

// Requires mutex_ held by the caller: the instrument pointer is
// installed after this returns and must not race with snapshot().
Registry::Series& Registry::find_or_create(std::string_view name,
                                           std::string_view help,
                                           MetricType type, Labels&& labels) {
  AAPC_REQUIRE(valid_metric_name(name),
               "invalid metric name '" << name << "'");
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    AAPC_REQUIRE(valid_label_key(labels[i].first),
                 "invalid label key '" << labels[i].first << "' on metric '"
                                       << name << "'");
    AAPC_REQUIRE(i == 0 || labels[i - 1].first != labels[i].first,
                 "duplicate label key '" << labels[i].first << "' on metric '"
                                         << name << "'");
  }
  const std::string key = series_key(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Series& existing = *series_[it->second];
    AAPC_REQUIRE(existing.type == type,
                 "metric '" << name << "' already registered as "
                            << metric_type_name(existing.type));
    return existing;
  }
  // All series of one name must share a type (the exposition emits one
  // TYPE line per name).
  for (const auto& existing : series_) {
    AAPC_REQUIRE(existing->name != name || existing->type == type,
                 "metric '" << name << "' already registered as "
                            << metric_type_name(existing->type));
  }
  auto series = std::make_unique<Series>();
  series->name = std::string(name);
  series->help = std::string(help);
  series->type = type;
  series->labels = std::move(labels);
  index_.emplace(key, series_.size());
  series_.push_back(std::move(series));
  return *series_.back();
}

Counter& Registry::counter(std::string_view name, std::string_view help,
                           Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      find_or_create(name, help, MetricType::kCounter, std::move(labels));
  if (series.counter == nullptr) series.counter = std::make_unique<Counter>();
  return *series.counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help,
                       Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      find_or_create(name, help, MetricType::kGauge, std::move(labels));
  if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               std::vector<double> bounds, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series =
      find_or_create(name, help, MetricType::kHistogram, std::move(labels));
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  } else {
    AAPC_REQUIRE(series.histogram->bounds() == bounds,
                 "histogram '" << name
                               << "' already registered with different "
                                  "bucket bounds");
  }
  return *series.histogram;
}

RegistrySnapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot snap;
  snap.series.reserve(series_.size());
  for (const auto& series : series_) {
    SeriesSnapshot s;
    s.name = series->name;
    s.help = series->help;
    s.type = series->type;
    s.labels = series->labels;
    switch (series->type) {
      case MetricType::kCounter:
        s.counter = series->counter->value();
        break;
      case MetricType::kGauge:
        s.gauge = series->gauge->value();
        break;
      case MetricType::kHistogram:
        s.histogram = series->histogram->snapshot_state();
        break;
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

std::size_t Registry::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

}  // namespace aapc::obs
