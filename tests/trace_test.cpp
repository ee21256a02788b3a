// Tests for trace recording and rendering — including the strongest
// end-to-end check in the repo: under pair-wise synchronization, no two
// contending data transfers ever overlap in simulated time.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "aapc/baselines/baselines.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/lowering/lower.hpp"
#include "aapc/mpisim/executor.hpp"
#include "aapc/trace/trace.hpp"
#include "aapc/topology/generators.hpp"

namespace aapc::trace {
namespace {

using topology::make_paper_figure1;
using topology::make_single_switch;
using topology::Topology;

mpisim::ExecutionResult run_traced(const Topology& topo,
                                   const mpisim::ProgramSet& set,
                                   SimTime jitter = 0) {
  simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.record_trace = true;
  exec.wakeup_jitter_max = jitter;
  mpisim::Executor executor(topo, net, exec);
  return executor.run(set);
}

TEST(TraceTest, RecordsEveryMatchedMessage) {
  const Topology topo = make_single_switch(4);
  const mpisim::ProgramSet set = baselines::lam_alltoall(4, 8_KiB);
  const mpisim::ExecutionResult result = run_traced(topo, set);
  EXPECT_EQ(static_cast<std::int64_t>(result.trace.size()),
            result.message_count);
  for (const mpisim::MessageTrace& m : result.trace) {
    EXPECT_GE(m.end, m.start);
    EXPECT_GE(m.delivered, m.end);
    EXPECT_FALSE(m.is_sync);
    EXPECT_EQ(m.bytes, 8_KiB);
  }
}

TEST(TraceTest, TraceOffByDefault) {
  const Topology topo = make_single_switch(4);
  simnet::NetworkParams net;
  mpisim::Executor executor(topo, net, {});
  const mpisim::ExecutionResult result =
      executor.run(baselines::lam_alltoall(4, 8_KiB));
  EXPECT_TRUE(result.trace.empty());
}

TEST(TraceTest, SyncTokensMarked) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 32_KiB);
  const mpisim::ExecutionResult result = run_traced(topo, set);
  std::int64_t syncs = 0;
  std::int64_t data = 0;
  for (const mpisim::MessageTrace& m : result.trace) {
    (m.is_sync ? syncs : data) += 1;
  }
  EXPECT_EQ(data, 30);
  EXPECT_GT(syncs, 0);
}

TEST(TraceTest, PairwiseSyncSerializesContendingTransfers) {
  // The §5 guarantee, observed end to end in the simulator: two data
  // transfers sharing a directed tree edge never overlap in time.
  for (const Topology& topo :
       {make_paper_figure1(), make_single_switch(8),
        topology::make_chain({4, 4}), topology::make_star({5, 4, 2})}) {
    const core::Schedule schedule = core::build_aapc_schedule(topo);
    const mpisim::ProgramSet set =
        lowering::lower_schedule(topo, schedule, 64_KiB);
    // With OS jitter enabled: the sync must serialize regardless of
    // skew, not just in lockstep.
    const mpisim::ExecutionResult result = run_traced(topo, set, 1e-3);
    EXPECT_EQ(max_overlapping_contending_transfers(topo, result.trace), 1)
        << topo.machine_count() << " machines";
  }
}

TEST(TraceTest, NoSyncModeDoesOverlap) {
  // Control for the previous test: without synchronization the same
  // schedule's transfers do collide.
  const Topology topo = make_single_switch(8);
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  lowering::LoweringOptions options;
  options.sync = lowering::SyncMode::kNone;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 64_KiB, options);
  const mpisim::ExecutionResult result = run_traced(topo, set);
  EXPECT_GT(max_overlapping_contending_transfers(topo, result.trace), 1);
}

TEST(TraceTest, BarrierModeAlsoSerializes) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  lowering::LoweringOptions options;
  options.sync = lowering::SyncMode::kBarrier;
  const mpisim::ProgramSet set =
      lowering::lower_schedule(topo, schedule, 64_KiB, options);
  const mpisim::ExecutionResult result = run_traced(topo, set, 1e-3);
  EXPECT_EQ(max_overlapping_contending_transfers(topo, result.trace), 1);
}

TEST(TraceTest, CsvHasHeaderAndRows) {
  const Topology topo = make_single_switch(3);
  const mpisim::ExecutionResult result =
      run_traced(topo, baselines::lam_alltoall(3, 4_KiB));
  const std::string csv = to_csv(result.trace);
  EXPECT_NE(csv.find("src,dst,bytes"), std::string::npos);
  // header + 6 messages.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);
}

TEST(TraceTest, ChromeJsonIsWellFormedEnough) {
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ExecutionResult result = run_traced(
      topo, lowering::lower_schedule(topo, schedule, 16_KiB));
  const std::string json = to_chrome_json(result.trace);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // durations
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // sync marks
  // Balanced braces/brackets.
  std::int64_t braces = 0;
  std::int64_t brackets = 0;
  for (const char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceTest, AsciiGanttShape) {
  const Topology topo = make_single_switch(3);
  const mpisim::ExecutionResult result =
      run_traced(topo, baselines::lam_alltoall(3, 64_KiB));
  const std::string chart = ascii_gantt(result.trace, 3, 40);
  EXPECT_NE(chart.find('#'), std::string::npos);
  // One header line + 3 rank rows.
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 4);
}

TEST(TraceTest, EmptyTraceGantt) {
  EXPECT_NE(ascii_gantt({}, 2).find("empty"), std::string::npos);
}

TEST(TraceTest, LinkUtilizationReport) {
  const Topology topo = make_single_switch(3);
  simnet::NetworkParams net;
  mpisim::ExecutorParams exec;
  exec.record_trace = true;
  exec.wakeup_jitter_max = 0;
  mpisim::Executor executor(topo, net, exec);
  const mpisim::ExecutionResult result =
      executor.run(baselines::lam_alltoall(3, 64_KiB));
  const std::string report = link_utilization_report(
      topo, result.network_stats, net.effective_bandwidth(),
      result.completion_time);
  EXPECT_NE(report.find("n0->s0"), std::string::npos);
  EXPECT_NE(report.find('%'), std::string::npos);
}

/// Strict recursive-descent parser for the Chrome trace-event JSON the
/// renderer emits: validates the whole document and flattens each
/// element of "traceEvents" into string/number fields (nested "args"
/// keys become "args.<key>"). Any syntax error throws.
class ChromeTraceParser {
 public:
  struct Event {
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;
  };

  explicit ChromeTraceParser(std::string text) : text_(std::move(text)) {}

  std::vector<Event> parse() {
    std::vector<Event> events;
    expect('{');
    const std::string key = parse_string();
    if (key != "traceEvents") throw std::runtime_error("bad top key");
    expect(':');
    expect('[');
    skip_space();
    if (!consume(']')) {
      do {
        events.push_back(parse_event());
      } while (consume(','));
      expect(']');
    }
    expect('}');
    skip_space();
    if (pos_ != text_.size()) throw std::runtime_error("trailing content");
    return events;
  }

 private:
  Event parse_event(const std::string& prefix = "", Event* into = nullptr) {
    Event event;
    Event& out = into ? *into : event;
    expect('{');
    do {
      const std::string key = prefix + parse_string();
      expect(':');
      skip_space();
      if (peek() == '"') {
        out.strings[key] = parse_string();
      } else if (peek() == '{') {
        parse_event(key + ".", &out);
      } else {
        const char* begin = text_.c_str() + pos_;
        char* end = nullptr;
        out.numbers[key] = std::strtod(begin, &end);
        if (end == begin) throw std::runtime_error("bad number");
        pos_ += static_cast<std::size_t>(end - begin);
      }
    } while (consume(','));
    expect('}');
    return out;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) throw std::runtime_error("bad escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) throw std::runtime_error("bad \\u");
            c = static_cast<char>(
                std::stoi(text_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("unknown escape");
        }
      }
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) throw std::runtime_error("eof");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected ") + c);
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string text_;
  std::size_t pos_ = 0;
};

TEST(TraceTest, ChromeJsonParsesAndRoundTripsEventCounts) {
  // Synthetic trace with every event class the renderer emits: data
  // transfers (with and without retry annotations) and a sync token.
  std::vector<mpisim::MessageTrace> trace;
  trace.push_back(
      mpisim::MessageTrace{0, 1, 4096, 0, 0.001, 0.002, 0.0021, false, 2});
  trace.push_back(
      mpisim::MessageTrace{1, 2, 8192, 3, 0.002, 0.004, 0.0041, false, 0});
  trace.push_back(mpisim::MessageTrace{2, 0, 4, mpisim::kSyncTag, 0.003,
                                       0.003, 0.0031, true, 0});

  const std::string json = to_chrome_json(trace);
  const std::vector<ChromeTraceParser::Event> events =
      ChromeTraceParser(json).parse();
  ASSERT_EQ(events.size(), trace.size());

  std::int64_t durations = 0;
  std::int64_t instants = 0;
  std::int64_t retried = 0;
  for (const ChromeTraceParser::Event& event : events) {
    const std::string ph = event.strings.at("ph");
    if (ph == "X") {
      ++durations;
      EXPECT_TRUE(event.numbers.count("args.bytes"));
    } else {
      EXPECT_EQ(ph, "i");
      ++instants;
    }
    if (event.numbers.count("args.retries")) {
      ++retried;
      EXPECT_EQ(event.numbers.at("args.retries"), 2);
    }
  }
  EXPECT_EQ(durations, 2);  // the two data transfers
  EXPECT_EQ(instants, 1);   // the sync token
  EXPECT_EQ(retried, 1);    // retries emitted only when > 0
  // Timestamps are microseconds.
  EXPECT_NEAR(events.back().numbers.at("ts"), 3000.0, 1e-6);
}

TEST(TraceTest, ChromeJsonFullRunParses) {
  // The end-to-end render of a real run must be valid JSON — parsed
  // strictly, not just brace-balanced — and keep one event per message.
  const Topology topo = make_paper_figure1();
  const core::Schedule schedule = core::build_aapc_schedule(topo);
  const mpisim::ExecutionResult result = run_traced(
      topo, lowering::lower_schedule(topo, schedule, 16_KiB));
  const std::vector<ChromeTraceParser::Event> events =
      ChromeTraceParser(to_chrome_json(result.trace)).parse();
  EXPECT_EQ(events.size(), result.trace.size());
}

TEST(TraceTest, OverlapDetectorCountsConcurrentFlows) {
  // Two same-edge transfers overlapping in time must be detected even
  // without running the executor.
  const Topology topo = make_single_switch(3);
  std::vector<mpisim::MessageTrace> trace;
  trace.push_back(mpisim::MessageTrace{0, 1, 10, 0, 0.0, 1.0, 1.0, false});
  trace.push_back(mpisim::MessageTrace{0, 2, 10, 0, 0.5, 1.5, 1.5, false});
  EXPECT_EQ(max_overlapping_contending_transfers(topo, trace), 2);
  // Back-to-back (half-open) intervals do not count as overlap.
  trace[1].start = 1.0;
  EXPECT_EQ(max_overlapping_contending_transfers(topo, trace), 1);
}

}  // namespace
}  // namespace aapc::trace
