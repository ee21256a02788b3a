#include "aapc/obs/exposition.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/common/strings.hpp"

namespace aapc::obs {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// HELP-line escaping: backslash and newline only (quotes are legal).
std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// {k="v",...} with an optional extra label appended (histogram `le`).
std::string label_block(const Labels& labels, std::string_view extra_key = {},
                        std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out += std::string(extra_key) + "=\"" + std::string(extra_value) + "\"";
  }
  out.push_back('}');
  return out;
}

}  // namespace

std::string to_prometheus_text(const RegistrySnapshot& snapshot) {
  std::ostringstream os;
  std::string open_block;  // metric name whose HELP/TYPE was emitted last
  for (const SeriesSnapshot& s : snapshot.series) {
    if (s.name != open_block) {
      if (!s.help.empty()) {
        os << "# HELP " << s.name << ' ' << escape_help(s.help) << '\n';
      }
      os << "# TYPE " << s.name << ' ' << metric_type_name(s.type) << '\n';
      open_block = s.name;
    }
    switch (s.type) {
      case MetricType::kCounter:
        os << s.name << label_block(s.labels) << ' ' << s.counter << '\n';
        break;
      case MetricType::kGauge:
        os << s.name << label_block(s.labels) << ' '
           << format_double_roundtrip(s.gauge) << '\n';
        break;
      case MetricType::kHistogram: {
        std::int64_t cumulative = 0;
        for (std::size_t i = 0; i < s.histogram.buckets.size(); ++i) {
          cumulative += s.histogram.buckets[i];
          const std::string le =
              i < s.histogram.bounds.size()
                  ? format_double_roundtrip(s.histogram.bounds[i])
                  : "+Inf";
          os << s.name << "_bucket" << label_block(s.labels, "le", le) << ' '
             << cumulative << '\n';
        }
        os << s.name << "_sum" << label_block(s.labels) << ' '
           << format_double_roundtrip(s.histogram.sum) << '\n';
        os << s.name << "_count" << label_block(s.labels) << ' '
           << s.histogram.count << '\n';
        os << s.name << "_max" << label_block(s.labels) << ' '
           << format_double_roundtrip(s.histogram.max) << '\n';
        break;
      }
    }
  }
  return os.str();
}

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
