// Tests for the observability layer (obs/metrics.hpp,
// obs/exposition.hpp): instrument semantics, registry identity and
// type discipline, the JSON exporter's round trip, and multi-threaded
// recording.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/obs/exposition.hpp"
#include "aapc/obs/metrics.hpp"

namespace aapc::obs {
namespace {

TEST(Counter, IncrementAndSetTotal) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(5);
  EXPECT_EQ(c.value(), 6);
  c.set_total(10);
  EXPECT_EQ(c.value(), 10);
  // set_total never moves the counter backwards.
  c.set_total(3);
  EXPECT_EQ(c.value(), 10);
}

TEST(Gauge, SetAddAndSetMax) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_EQ(g.value(), 1.5);
  g.set_max(3.0);
  EXPECT_EQ(g.value(), 3.0);
  g.set_max(0.5);
  EXPECT_EQ(g.value(), 3.0);
  g.set(-4.0);
  EXPECT_EQ(g.value(), -4.0);
}

TEST(Histogram, BucketsCountSumMax) {
  Histogram h({1.0, 2.0, 5.0});
  for (const double v : {0.5, 1.0, 1.5, 4.0, 7.0}) h.observe(v);
  const HistogramSnapshot snap = h.snapshot_state();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 2);  // 0.5, 1.0 (bounds are inclusive)
  EXPECT_EQ(snap.buckets[1], 1);  // 1.5
  EXPECT_EQ(snap.buckets[2], 1);  // 4.0
  EXPECT_EQ(snap.buckets[3], 1);  // 7.0 -> +Inf
  EXPECT_EQ(snap.count, 5);
  EXPECT_DOUBLE_EQ(snap.sum, 14.0);
  EXPECT_EQ(snap.max, 7.0);
}

TEST(Histogram, QuantileSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  // All mass in (1, 2]; the interpolated estimate stays inside the
  // bucket and is clamped to the recorded max.
  const double p50 = h.quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 1.5);
  EXPECT_EQ(h.quantile(1.0), 1.5);
  h.observe(100.0);  // +Inf bucket resolves to the max
  EXPECT_EQ(h.quantile(1.0), 100.0);
  EXPECT_THROW(h.quantile(1.5), InvalidArgument);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({2.0, 1.0}), InvalidArgument);
  EXPECT_THROW(Histogram({1.0, std::numeric_limits<double>::infinity()}),
               InvalidArgument);
}

TEST(Registry, SameSeriesSameInstrument) {
  Registry r;
  Counter& a = r.counter("aapc_test_total", "help");
  Counter& b = r.counter("aapc_test_total");
  EXPECT_EQ(&a, &b);
  // Label order does not matter: pairs are canonicalized by key.
  Counter& c = r.counter("aapc_labeled_total", "", {{"b", "2"}, {"a", "1"}});
  Counter& d = r.counter("aapc_labeled_total", "", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&c, &d);
  // A different label value is a different series.
  Counter& e = r.counter("aapc_labeled_total", "", {{"a", "1"}, {"b", "3"}});
  EXPECT_NE(&c, &e);
  EXPECT_EQ(r.series_count(), 3u);
}

TEST(Registry, RejectsConflictsAndBadNames) {
  Registry r;
  r.counter("aapc_conflict");
  EXPECT_THROW(r.gauge("aapc_conflict"), InvalidArgument);
  // Same name, different labels, different type: still rejected (one
  // TYPE per name in the exposition).
  EXPECT_THROW(r.histogram("aapc_conflict", "", {1.0}, {{"k", "v"}}),
               InvalidArgument);
  r.histogram("aapc_hist", "", {1.0, 2.0});
  EXPECT_THROW(r.histogram("aapc_hist", "", {1.0, 3.0}), InvalidArgument);
  EXPECT_THROW(r.counter(""), InvalidArgument);
  EXPECT_THROW(r.counter("0starts_with_digit"), InvalidArgument);
  EXPECT_THROW(r.counter("has space"), InvalidArgument);
  EXPECT_THROW(r.counter("aapc_ok", "", {{"bad key", "v"}}), InvalidArgument);
  EXPECT_THROW(r.counter("aapc_ok", "", {{"colon:key", "v"}}),
               InvalidArgument);
  EXPECT_THROW(r.counter("aapc_ok", "", {{"k", "1"}, {"k", "2"}}),
               InvalidArgument);
}

TEST(Registry, SnapshotFindValueTotal) {
  Registry r;
  r.counter("aapc_events_total", "", {{"kind", "a"}}).inc(3);
  r.counter("aapc_events_total", "", {{"kind", "b"}}).inc(4);
  r.gauge("aapc_depth").set(2.5);
  const RegistrySnapshot snap = r.snapshot();
  ASSERT_NE(snap.find("aapc_events_total", {{"kind", "a"}}), nullptr);
  EXPECT_EQ(snap.find("aapc_events_total", {{"kind", "a"}})->counter, 3);
  EXPECT_EQ(snap.find("aapc_events_total"), nullptr);  // labels must match
  EXPECT_EQ(snap.value("aapc_events_total", {{"kind", "b"}}), 4.0);
  EXPECT_EQ(snap.value("aapc_missing"), 0.0);
  EXPECT_EQ(snap.total("aapc_events_total"), 7.0);
  EXPECT_EQ(snap.value("aapc_depth"), 2.5);
}

/// Round trip: registry -> JSON -> snapshot -> JSON must be
/// bit-identical for every value (format_double_roundtrip guarantees
/// the decimal form parses back exactly).
TEST(Exposition, JsonRoundTripIsExact) {
  Registry r;
  r.counter("aapc_big_total").inc((std::int64_t{1} << 53) + 7);
  r.gauge("aapc_pi", "with \"quotes\" and \\slashes\\ and \ncontrol")
      .set(0.1 + 0.2);  // deliberately not representable
  r.gauge("aapc_neg", "", {{"k", "v\twith\ttabs"}}).set(-1.25e-13);
  Histogram& h = r.histogram("aapc_lat_seconds", "Latency");
  h.observe(3.3e-5);
  h.observe(0.42);
  h.observe(17.0);

  const RegistrySnapshot original = r.snapshot();
  const std::string json = to_json(original);
  const RegistrySnapshot parsed = snapshot_from_json(json);
  ASSERT_EQ(parsed.series.size(), original.series.size());
  for (std::size_t i = 0; i < original.series.size(); ++i) {
    const SeriesSnapshot& a = original.series[i];
    const SeriesSnapshot& b = parsed.series[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.help, b.help);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.gauge, b.gauge);
    EXPECT_EQ(a.histogram.bounds, b.histogram.bounds);
    EXPECT_EQ(a.histogram.buckets, b.histogram.buckets);
    EXPECT_EQ(a.histogram.count, b.histogram.count);
    EXPECT_EQ(a.histogram.sum, b.histogram.sum);
    EXPECT_EQ(a.histogram.max, b.histogram.max);
  }
  EXPECT_EQ(to_json(parsed), json);
}

/// Histogram counts are integers read exactly: 2^53 + 1 has no double,
/// so a reader that goes through one returns 2^53.
TEST(Exposition, HistogramCountsParseExactlyPast2To53) {
  const RegistrySnapshot parsed = snapshot_from_json(
      R"({"metrics":[{"name":"aapc_lat_seconds","type":"histogram",)"
      R"("count":9007199254740993,"sum":1,"max":1,"bounds":[1],)"
      R"("buckets":[9007199254740993,0]}]})");
  ASSERT_EQ(parsed.series.size(), 1u);
  EXPECT_EQ(parsed.series[0].histogram.count, 9007199254740993);
  EXPECT_EQ(parsed.series[0].histogram.buckets,
            (std::vector<std::int64_t>{9007199254740993, 0}));
}

TEST(Exposition, JsonParserRejectsMalformedInput) {
  Registry r;
  r.counter("aapc_x_total").inc();
  const std::string json = to_json(r.snapshot());
  EXPECT_NO_THROW(snapshot_from_json(json));
  EXPECT_THROW(snapshot_from_json(""), InvalidArgument);
  EXPECT_THROW(snapshot_from_json("{\"wrong\":[]}"), InvalidArgument);
  EXPECT_THROW(snapshot_from_json(json + "x"), InvalidArgument);
  EXPECT_THROW(
      snapshot_from_json(
          R"({"metrics":[{"name":"a","type":"counter","value":1,"bogus":2}]})"),
      InvalidArgument);
  EXPECT_THROW(
      snapshot_from_json(R"({"metrics":[{"name":"a","type":"nope"}]})"),
      InvalidArgument);
  // Histogram counts are integer literals: no fraction or exponent
  // spelling, no negative count.
  for (const char* count : {"3.0", "3e0", "1e3", "-1"}) {
    EXPECT_THROW(
        snapshot_from_json(
            std::string(R"({"metrics":[{"name":"h","type":"histogram",)"
                        R"("count":)") +
            count + R"(,"bounds":[],"buckets":[0]}]})"),
        InvalidArgument)
        << count;
  }
  // Out-of-range numbers are rejected, not saturated.
  EXPECT_THROW(
      snapshot_from_json(
          R"({"metrics":[{"name":"a","type":"gauge","value":1e999}]})"),
      InvalidArgument);
}

/// Many writers, one concurrent reader: final totals must be exact
/// (every relaxed increment lands), and registration from all threads
/// must converge on the same instruments. Run under TSan in CI.
TEST(Concurrency, HammerWithConcurrentSnapshots) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 20000;
  Registry r;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const RegistrySnapshot snap = r.snapshot();
      for (const SeriesSnapshot& s : snap.series) {
        // Counts never go backwards and histograms stay coherent
        // enough that count >= any single bucket.
        if (s.type == MetricType::kHistogram) {
          for (const std::int64_t b : s.histogram.buckets) {
            EXPECT_LE(b, s.histogram.count);
          }
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&r, t] {
      // Resolve handles in-thread: registration must be thread-safe
      // and return the same instruments everywhere.
      Counter& ops = r.counter("aapc_hammer_ops_total");
      Gauge& acc = r.gauge("aapc_hammer_acc");
      Gauge& peak = r.gauge("aapc_hammer_peak");
      Histogram& lat = r.histogram("aapc_hammer_seconds", "", {0.5, 1.5});
      for (int i = 0; i < kIterations; ++i) {
        ops.inc();
        acc.add(1.0);
        peak.set_max(static_cast<double>(t * kIterations + i));
        lat.observe(i % 2 == 0 ? 0.25 : 1.0);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true);
  reader.join();

  const RegistrySnapshot snap = r.snapshot();
  const std::int64_t expected =
      static_cast<std::int64_t>(kThreads) * kIterations;
  EXPECT_EQ(snap.find("aapc_hammer_ops_total")->counter, expected);
  EXPECT_EQ(snap.value("aapc_hammer_acc"), static_cast<double>(expected));
  EXPECT_EQ(snap.value("aapc_hammer_peak"),
            static_cast<double>(kThreads * kIterations - 1));
  const SeriesSnapshot* lat = snap.find("aapc_hammer_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, expected);
  EXPECT_EQ(lat->histogram.buckets[0], expected / 2);
  EXPECT_EQ(lat->histogram.buckets[1], expected / 2);
}

}  // namespace
}  // namespace aapc::obs
