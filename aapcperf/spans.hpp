// In-memory spans for the traced run. A span records one call into a
// layer's public function: name, start, end, the enclosing span and the
// request it belongs to. Spans nest through a scope stack (the traced
// replays are single-threaded), are kept in memory, and are written out
// once, in the Chrome trace format, when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perf.hpp"

namespace aapc::perf {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer's origin
    double end = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    std::uint64_t request = 0;
  };

  /// A disabled tracer records nothing; scopes still time their calls,
  /// so the same replay code runs traced and untraced.
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the span (e.g. a service call found to be a hit).
    void rename(std::string name);
    /// Seconds from open to now, or to close once closed.
    double seconds() const;
    void close();

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it the span's children cover.
  std::vector<double> self_seconds() const;
  /// Index of the outermost span enclosing `index`.
  std::int64_t root_of(std::int64_t index) const;
  /// Chrome trace JSON ("X" events; args carry request and parent).
  std::string to_chrome_json() const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// Aggregates over the spans of one replay group: spans named `name`
/// whose root span is named `root`.
struct SpanTotals {
  std::int64_t count = 0;
  double self_seconds = 0;  // summed self time
  double mean_self_ms() const {
    return count > 0 ? self_seconds * 1e3 / static_cast<double>(count) : 0;
  }
};
SpanTotals span_totals(const Tracer& tracer, const std::string& root,
                       const std::string& name);

}  // namespace aapc::perf
