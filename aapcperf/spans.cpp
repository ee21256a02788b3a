#include "spans.hpp"

#include <cstdio>

namespace aapc::perf {

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t request)
    : tracer_(tracer), start_(Clock::now()) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  Span span;
  span.name = std::move(name);
  span.start = seconds_between(tracer_.origin_, start_);
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.request = request;
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() { close(); }

void Tracer::Scope::rename(std::string name) {
  if (index_ >= 0) tracer_.spans_[static_cast<std::size_t>(index_)].name =
      std::move(name);
}

double Tracer::Scope::seconds() const {
  return seconds_ >= 0 ? seconds_ : seconds_since(start_);
}

void Tracer::Scope::close() {
  if (seconds_ >= 0) return;
  const Clock::time_point end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end =
      seconds_between(tracer_.origin_, end);
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  return self;
}

std::int64_t Tracer::root_of(std::int64_t index) const {
  while (spans_[static_cast<std::size_t>(index)].parent >= 0) {
    index = spans_[static_cast<std::size_t>(index)].parent;
  }
  return index;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"request\": %llu, \"parent\": %lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                  (s.end - s.start) * 1e6,
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent));
    out += buf;
  }
  return out + "\n]}\n";
}

SpanTotals span_totals(const Tracer& tracer, const std::string& root,
                       const std::string& name) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.self_seconds();
  SpanTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    if (spans[tracer.root_of(static_cast<std::int64_t>(i))].name != root) {
      continue;
    }
    ++totals.count;
    totals.self_seconds += self[i];
  }
  return totals;
}

}  // namespace aapc::perf
