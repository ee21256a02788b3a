#include "aapc/obs/exposition.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::obs {

std::string to_json(const RegistrySnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"metrics\":[";
  for (std::size_t i = 0; i < snapshot.series.size(); ++i) {
    const SeriesSnapshot& s = snapshot.series[i];
    if (i > 0) os << ',';
    os << "{\"name\":" << json::quote(s.name) << ",\"type\":\""
       << metric_type_name(s.type) << "\"";
    if (!s.help.empty()) os << ",\"help\":" << json::quote(s.help);
    if (!s.labels.empty()) {
      os << ",\"labels\":{";
      for (std::size_t l = 0; l < s.labels.size(); ++l) {
        if (l > 0) os << ',';
        os << json::quote(s.labels[l].first) << ':'
           << json::quote(s.labels[l].second);
      }
      os << '}';
    }
    switch (s.type) {
      case MetricType::kCounter:
        os << ",\"value\":" << s.counter;
        break;
      case MetricType::kGauge:
        os << ",\"value\":" << format_double_roundtrip(s.gauge);
        break;
      case MetricType::kHistogram: {
        os << ",\"count\":" << s.histogram.count
           << ",\"sum\":" << format_double_roundtrip(s.histogram.sum)
           << ",\"max\":" << format_double_roundtrip(s.histogram.max)
           << ",\"bounds\":[";
        for (std::size_t b = 0; b < s.histogram.bounds.size(); ++b) {
          if (b > 0) os << ',';
          os << format_double_roundtrip(s.histogram.bounds[b]);
        }
        os << "],\"buckets\":[";
        for (std::size_t b = 0; b < s.histogram.buckets.size(); ++b) {
          if (b > 0) os << ',';
          os << s.histogram.buckets[b];
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

RegistrySnapshot snapshot_from_json(std::string_view json) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  json::Reader reader(json, "metrics JSON");
  RegistrySnapshot snapshot;
  reader.expect('{');
  bool saw_metrics = false;
  do {
    const std::string field = reader.key();
    AAPC_REQUIRE(field == "metrics",
                 "metrics JSON: unknown field '" << field << "'");
    saw_metrics = true;
    reader.expect('[');
    if (!reader.consume(']')) {
      do {
        reader.expect('{');
        SeriesSnapshot s;
        std::string type_name;
        // "value" is read once the type is known (a counter is an exact
        // integer, a gauge a double), from a copy of the reader taken
        // where the value starts.
        std::optional<json::Reader> value_at;
        do {
          const std::string name = reader.key();
          if (name == "name") {
            s.name = reader.string();
          } else if (name == "type") {
            type_name = reader.string();
          } else if (name == "help") {
            s.help = reader.string();
          } else if (name == "labels") {
            reader.expect('{');
            do {
              const std::string label_key = reader.key();
              s.labels.emplace_back(label_key, reader.string());
            } while (reader.consume(','));
            reader.expect('}');
          } else if (name == "value") {
            value_at = reader;
            (void)reader.number();
          } else if (name == "count") {
            s.histogram.count = reader.integer(0, kMax);
          } else if (name == "sum") {
            s.histogram.sum = reader.number();
          } else if (name == "max") {
            s.histogram.max = reader.number();
          } else if (name == "bounds") {
            reader.expect('[');
            if (!reader.consume(']')) {
              do {
                s.histogram.bounds.push_back(reader.number());
              } while (reader.consume(','));
              reader.expect(']');
            }
          } else if (name == "buckets") {
            reader.expect('[');
            if (!reader.consume(']')) {
              do {
                s.histogram.buckets.push_back(reader.integer(0, kMax));
              } while (reader.consume(','));
              reader.expect(']');
            }
          } else {
            throw InvalidArgument("metrics JSON: unknown field '" + name +
                                  "'");
          }
        } while (reader.consume(','));
        reader.expect('}');
        if (type_name == "counter") {
          s.type = MetricType::kCounter;
          if (value_at) s.counter = value_at->integer(kMin, kMax);
        } else if (type_name == "gauge") {
          s.type = MetricType::kGauge;
          if (value_at) s.gauge = value_at->number();
        } else if (type_name == "histogram") {
          s.type = MetricType::kHistogram;
          AAPC_REQUIRE(
              s.histogram.buckets.size() == s.histogram.bounds.size() + 1,
              "metrics JSON: histogram '"
                  << s.name << "' has " << s.histogram.buckets.size()
                  << " buckets for " << s.histogram.bounds.size()
                  << " bounds");
        } else {
          throw InvalidArgument("metrics JSON: unknown type '" + type_name +
                                "'");
        }
        AAPC_REQUIRE(!s.name.empty(), "metrics JSON: series missing 'name'");
        snapshot.series.push_back(std::move(s));
      } while (reader.consume(','));
      reader.expect(']');
    }
  } while (reader.consume(','));
  reader.expect('}');
  reader.finish();
  AAPC_REQUIRE(saw_metrics, "metrics JSON: missing 'metrics'");
  return snapshot;
}

}  // namespace aapc::obs
