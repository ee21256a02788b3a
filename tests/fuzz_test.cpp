// Deterministic fuzz tests: malformed and randomized inputs to the two
// text parsers and the packet/fluid simulators must throw typed errors
// or succeed — never crash, hang, or corrupt state.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "aapc/common/error.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/core/schedule_io.hpp"
#include "aapc/faults/fault_plan.hpp"
#include "aapc/flight/dump.hpp"
#include "aapc/netd/wire.hpp"
#include "aapc/core/scheduler.hpp"
#include "aapc/core/verify.hpp"
#include "aapc/simnet/fluid_network.hpp"
#include "aapc/topology/generators.hpp"
#include "aapc/topology/io.hpp"

namespace aapc {
namespace {

std::string random_text(Rng& rng, std::size_t length) {
  // Characters weighted toward the grammar's alphabet so the fuzzer
  // reaches deeper parser states than pure noise would.
  constexpr char kAlphabet[] =
      "switch machine link s0 n1 {}[],:\"0123456789\n\t #-";
  std::string text;
  text.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    text.push_back(kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)]);
  }
  return text;
}

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, TopologyParserNeverCrashes) {
  Rng rng(GetParam() * 1337 + 1);
  for (int round = 0; round < 50; ++round) {
    const std::string text =
        random_text(rng, static_cast<std::size_t>(rng.next_in(0, 200)));
    try {
      const topology::Topology topo = topology::parse_topology(text);
      // Rarely, noise forms a valid topology; it must then behave.
      EXPECT_GE(topo.machine_count(), 1);
    } catch (const Error&) {
      // Typed rejection is the expected outcome.
    }
  }
}

TEST_P(ParserFuzzTest, ScheduleJsonParserNeverCrashes) {
  Rng rng(GetParam() * 7331 + 2);
  for (int round = 0; round < 50; ++round) {
    const std::string text =
        random_text(rng, static_cast<std::size_t>(rng.next_in(0, 150)));
    try {
      (void)core::schedule_from_json(text);
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzzTest, MutatedValidScheduleJson) {
  // Start from valid JSON and flip characters: the parser must reject
  // or accept without crashing, and accepted schedules must be safely
  // verifiable.
  Rng rng(GetParam() * 31 + 3);
  const topology::Topology topo = topology::make_single_switch(5);
  const std::string valid = core::schedule_to_json(
      core::build_aapc_schedule(topo), topo.machine_count());
  for (int round = 0; round < 60; ++round) {
    std::string mutated = valid;
    const int flips = static_cast<int>(rng.next_in(1, 4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_in(32, 126));
    }
    try {
      const core::Schedule schedule = core::schedule_from_json(mutated);
      core::VerifyOptions lax;
      lax.require_optimal_phase_count = false;
      if (static_cast<std::int32_t>(5) >= 2) {
        (void)core::verify_schedule(topo, schedule, lax);
      }
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzzTest, FaultPlanJsonParserNeverCrashes) {
  Rng rng(GetParam() * 8191 + 4);
  for (int round = 0; round < 50; ++round) {
    const std::string text =
        random_text(rng, static_cast<std::size_t>(rng.next_in(0, 180)));
    try {
      const faults::FaultPlan plan = faults::fault_plan_from_json(text);
      // Noise that parses must still survive validation or reject with
      // a typed error — and a validated plan must compile.
      plan.validate();
      (void)faults::compile(plan, simnet::NetworkParams{}, 64);
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzzTest, MutatedValidFaultPlanJson) {
  // Mutate a well-formed plan byte-by-byte: every outcome must be a
  // typed rejection or a plan that round-trips without crashing.
  Rng rng(GetParam() * 524287 + 6);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_degrade(0.12, 3, 0.5))
      .add(faults::FaultEvent::link_down(0.01, 0))
      .add(faults::FaultEvent::link_up(0.05, 0))
      .add(faults::FaultEvent::node_slowdown(0.0, 2, 3.0))
      .add(faults::FaultEvent::node_crash(0.08, 1));
  const std::string valid = faults::fault_plan_to_json(plan);
  for (int round = 0; round < 60; ++round) {
    std::string mutated = valid;
    const int flips = static_cast<int>(rng.next_in(1, 4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_in(32, 126));
    }
    try {
      const faults::FaultPlan parsed = faults::fault_plan_from_json(mutated);
      parsed.validate();
      (void)faults::fault_plan_to_json(parsed);
    } catch (const Error&) {
    }
  }
}

TEST(FaultPlanNumbersTest, OverflowAndLocaleShapedInputsReject) {
  auto event_with = [](const std::string& fields) {
    return "{\"events\":[{\"kind\":\"link_down\"," + fields + "}]}";
  };
  // A plain in-range plan parses.
  EXPECT_NO_THROW(
      faults::fault_plan_from_json(event_with("\"time_ms\":1.5,\"link\":3")));

  // Out-of-range doubles must reject loudly, not saturate to HUGE_VAL
  // (the old strtod path returned inf and only ERANGE — unchecked —
  // flagged it).
  for (const char* bad :
       {"1e999", "-1e999", "1e308999", "12345678901234567890e999"}) {
    EXPECT_THROW(faults::fault_plan_from_json(event_with(
                     std::string("\"time_ms\":") + bad + ",\"link\":3")),
                 InvalidArgument)
        << bad;
  }
  // Subnormal-underflow magnitudes are also flagged out-of-range by
  // from_chars; they must reject rather than silently flush.
  EXPECT_THROW(faults::fault_plan_from_json(
                   event_with("\"time_ms\":1e-999,\"link\":3")),
               InvalidArgument);

  // Locale-shaped and non-JSON numeric spellings that strtod happily
  // accepted (or that a comma locale would mis-split) must all reject:
  // the grammar is strict JSON now, independent of LC_NUMERIC.
  for (const char* bad : {"1,5", "nan", "inf", "infinity", "0x1p3", "1.",
                          ".5", "+1", "1e", "1e+"}) {
    EXPECT_THROW(faults::fault_plan_from_json(event_with(
                     std::string("\"time_ms\":") + bad + ",\"link\":3")),
                 Error)
        << bad;
  }

  // "link"/"rank" must be exact 32-bit integer literals: fractions and
  // values past INT32_MAX used to be narrowing-cast into garbage ids,
  // and fraction or exponent spellings of an integer are not integers.
  for (const char* bad :
       {"1.5", "3000000000", "-3000000000", "1e12", "3.0", "3e0"}) {
    EXPECT_THROW(faults::fault_plan_from_json(event_with(
                     std::string("\"time_ms\":1,\"link\":") + bad)),
                 InvalidArgument)
        << bad;
  }
  EXPECT_THROW(
      faults::fault_plan_from_json(
          "{\"events\":[{\"kind\":\"node_crash\",\"time_ms\":1,"
          "\"rank\":2.5}]}"),
      InvalidArgument);

  // Round trip of extreme-but-valid values stays exact through the
  // shortest-round-trip formatter.
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_degrade(0.1 + 0.2, 7, 0.12345678901234567))
      .add(faults::FaultEvent::node_slowdown(1e-9, 2, 1e9));
  const faults::FaultPlan reparsed =
      faults::fault_plan_from_json(faults::fault_plan_to_json(plan));
  ASSERT_EQ(reparsed.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    // The serialized time is milliseconds (x1e3 out, x1e-3 in), so the
    // seconds value can move an ulp; the factor is serialized directly
    // and must round-trip exactly.
    EXPECT_NEAR(reparsed.events[i].when, plan.events[i].when,
                1e-15 * plan.events[i].when);
    EXPECT_EQ(reparsed.events[i].factor, plan.events[i].factor);
  }
}

TEST(FaultPlanChurnSpellingsTest, ChurnSpellingsParseExactlyOrReject) {
  // The serving path's epoch feed (service/epochs.hpp) consumes the
  // three link-event kinds; a churn timeline written as FaultPlan JSON
  // must parse those exact spellings and nothing that merely looks
  // like them.
  auto plan_with = [](const std::string& event) {
    return "{\"events\":[" + event + "]}";
  };
  for (const char* good :
       {"{\"kind\":\"link_degrade\",\"time_ms\":1,\"link\":0,"
        "\"factor\":0.5}",
        "{\"kind\":\"link_down\",\"time_ms\":2,\"link\":0}",
        "{\"kind\":\"link_up\",\"time_ms\":3,\"link\":0}"}) {
    const faults::FaultPlan plan = faults::fault_plan_from_json(
        plan_with(good));
    EXPECT_NO_THROW(plan.validate()) << good;
  }

  // Near-miss kind spellings reject with typed errors — no aliasing
  // onto a known kind.
  for (const char* kind :
       {"churn", "link_churn", "epoch_bump", "reelect", "degrade",
        "link_restore", "LINK_DEGRADE", "link-degrade", "linkdegrade",
        "link_degrade ", " link_up", "link_up\\n"}) {
    EXPECT_THROW(
        faults::fault_plan_from_json(plan_with(
            "{\"kind\":\"" + std::string(kind) +
            "\",\"time_ms\":1,\"link\":0,\"factor\":0.5}")),
        Error)
        << kind;
  }

  // Epoch bookkeeping lives in the serving path, not the plan: events
  // smuggling churn-frame fields are rejected as unknown keys, so
  // format drift between the wire and the plan fails loudly.
  for (const char* field :
       {"\"epoch\":1", "\"invalidated\":2", "\"stale\":true",
        "\"reelected\":false", "\"rate\":0.5"}) {
    EXPECT_THROW(
        faults::fault_plan_from_json(plan_with(
            "{\"kind\":\"link_degrade\",\"time_ms\":1,\"link\":0,"
            "\"factor\":0.5," +
            std::string(field) + "}")),
        Error)
        << field;
  }

  // Degrade factors outside (0, 1] are rejected — the same range the
  // netd kChurnEvent decoder enforces before a frame ever reaches the
  // epoch feed.
  for (const char* factor : {"0", "-0.5", "1.5", "2"}) {
    EXPECT_THROW(
        {
          const faults::FaultPlan plan =
              faults::fault_plan_from_json(plan_with(
                  "{\"kind\":\"link_degrade\",\"time_ms\":1,\"link\":0,"
                  "\"factor\":" +
                  std::string(factor) + "}"));
          plan.validate();
        },
        InvalidArgument)
        << factor;
  }
}

TEST_P(ParserFuzzTest, TruncatedInputsRejectCleanly) {
  // Every byte-length prefix of valid inputs: the classic
  // cut-off-mid-token parser crash. All three text formats.
  Rng rng(GetParam() * 127 + 7);
  const topology::Topology topo = topology::make_single_switch(4);
  faults::FaultPlan plan;
  plan.add(faults::FaultEvent::link_down(0.01, 0))
      .add(faults::FaultEvent::node_crash(0.08, 1));
  const std::vector<std::pair<std::string, int>> inputs = {
      {topology::serialize_topology(topo), 0},
      {core::schedule_to_json(core::build_aapc_schedule(topo),
                              topo.machine_count()),
       1},
      {faults::fault_plan_to_json(plan), 2},
  };
  for (const auto& [text, which] : inputs) {
    for (int round = 0; round < 40; ++round) {
      const std::size_t cut = rng.next_below(text.size());
      const std::string truncated = text.substr(0, cut);
      try {
        switch (which) {
          case 0:
            (void)topology::parse_topology(truncated);
            break;
          case 1:
            (void)core::schedule_from_json(truncated);
            break;
          default:
            (void)faults::fault_plan_from_json(truncated);
            break;
        }
      } catch (const Error&) {
      }
    }
  }
}

/// A small but representative flight dump: three ranks, a few events
/// each (one ring overwritten), a run context, a label.
std::string valid_flight_dump() {
  flight::Recorder recorder(3, flight::RecorderParams{.ring_capacity = 8});
  for (std::int32_t rank = 0; rank < 3; ++rank) {
    const int events = rank == 2 ? 20 : 5;  // rank 2's ring wraps
    for (int i = 0; i < events; ++i) {
      recorder.record(rank, flight::EventKind::kSendPost, (rank + 1) % 3,
                      i, 1024, 0.001 * i + 0.0005, 0.001 * i);
      recorder.record(rank, flight::EventKind::kSendComplete, (rank + 1) % 3,
                      i, 1024, 0.001 * i + 0.0009, 0.001 * i + 0.0005);
    }
  }
  recorder.run = flight::RunContext{0, 117.0e6, 60e-6, 15e-6, 0.02};
  return flight::encode_dump(flight::snapshot(recorder, "fuzz fixture"));
}

TEST_P(ParserFuzzTest, FlightDumpTruncatedPrefixesRejectCleanly) {
  // Every byte-length prefix of a valid dump: the binary analogue of
  // the cut-off-mid-token crash. Only the full encoding may decode.
  const std::string valid = valid_flight_dump();
  Rng rng(GetParam() * 6151 + 8);
  for (int round = 0; round < 60; ++round) {
    const std::size_t cut = rng.next_below(valid.size());
    try {
      (void)flight::decode_dump(std::string_view(valid).substr(0, cut));
      ADD_FAILURE() << "truncated dump (" << cut << " of " << valid.size()
                    << " bytes) decoded";
    } catch (const Error&) {
    }
  }
  EXPECT_NO_THROW((void)flight::decode_dump(valid));
}

TEST_P(ParserFuzzTest, FlightDumpMutatedBytesNeverCrash) {
  // Random byte smashes anywhere in the dump — header, counts, event
  // records, label. Decode must reject with a typed error or produce a
  // dump sane enough to re-encode; either way, no crash and no
  // unbounded allocation (the decoder validates counts against the
  // input size before reserving).
  const std::string valid = valid_flight_dump();
  Rng rng(GetParam() * 2903 + 9);
  for (int round = 0; round < 80; ++round) {
    std::string mutated = valid;
    const int smashes = static_cast<int>(rng.next_in(1, 5));
    for (int s = 0; s < smashes; ++s) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_below(256));
    }
    try {
      const flight::FlightDump dump = flight::decode_dump(mutated);
      (void)flight::encode_dump(dump);
    } catch (const Error&) {
    }
  }
}

TEST_P(ParserFuzzTest, FlightDumpRandomNoiseRejects) {
  // Pure noise — with and without a valid magic prefix so the fuzzer
  // reaches past the first check.
  Rng rng(GetParam() * 4099 + 10);
  for (int round = 0; round < 60; ++round) {
    std::string noise(rng.next_below(300), '\0');
    for (char& c : noise) c = static_cast<char>(rng.next_below(256));
    if (round % 2 == 0 && noise.size() >= 8) {
      const std::uint64_t magic = flight::kDumpMagic;
      std::memcpy(noise.data(), &magic, sizeof(magic));
    }
    try {
      (void)flight::decode_dump(noise);
    } catch (const Error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 12));

class SimFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFuzzTest, RandomFlowsConserveBytesAndTerminate) {
  Rng rng(GetParam() * 97 + 5);
  topology::RandomTreeOptions options;
  options.switches = static_cast<std::int32_t>(rng.next_in(1, 5));
  options.machines = static_cast<std::int32_t>(rng.next_in(2, 10));
  const topology::Topology topo = topology::make_random_tree(rng, options);
  simnet::FluidNetwork network(topo, simnet::NetworkParams{});
  double total_bytes = 0;
  const int flows = static_cast<int>(rng.next_in(1, 40));
  for (int f = 0; f < flows; ++f) {
    const auto src =
        static_cast<topology::Rank>(rng.next_below(topo.machine_count()));
    auto dst =
        static_cast<topology::Rank>(rng.next_below(topo.machine_count()));
    if (dst == src) dst = (dst + 1) % topo.machine_count();
    const Bytes bytes = 1 + rng.next_below(1'000'000);
    network.add_flow(topo.machine_node(src), topo.machine_node(dst), bytes,
                     rng.next_double() * 0.01);
    total_bytes += static_cast<double>(bytes);
  }
  std::vector<simnet::FlowId> completed;
  SimTime previous = 0;
  int steps = 0;
  while (!network.idle()) {
    const SimTime next = network.next_event_time();
    ASSERT_NE(next, simnet::kNever);
    ASSERT_GE(next, previous - 1e-12) << "time went backwards";
    previous = next;
    network.advance_to(next, completed);
    ASSERT_LT(++steps, 100000) << "simulation did not terminate";
  }
  EXPECT_EQ(static_cast<int>(completed.size()), flows);
  EXPECT_EQ(network.stats().completed_flows, flows);
  // Conservation: delivered payload equals requested payload.
  double delivered = network.aggregate_throughput() * network.now();
  EXPECT_NEAR(delivered, total_bytes, 1.0 + total_bytes * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 20));

class NetdRequestFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetdRequestFuzzTest, MutatedV3RequestsRejectTypedOrDecode) {
  Rng rng(GetParam() * 1442695040888963407ull + 17);
  netd::RequestFrame request;
  request.request_id = 5;
  request.message_bytes = 4096;
  request.tenant = "fuzz";
  request.topology_text =
      topology::serialize_topology(topology::make_single_switch(4));
  request.kind = core::CollectiveKind::kSparseAlltoall;
  request.neighbors = {{1, 2}, {0}, {3}, {0, 1, 2}};
  const std::string pristine = netd::encode_request(request);
  for (int round = 0; round < 200; ++round) {
    std::string bytes = pristine;
    // Mutate 1-4 bytes anywhere past the magic, biased toward the v3
    // tail where the kind byte and neighbor block live. Every outcome
    // must be typed: a decoded request with a valid kind,
    // InvalidArgument (bad kind byte, neighbors on a non-sparse kind),
    // or ProtocolError (bounds, truncation, framing).
    const int mutations = static_cast<int>(rng.next_in(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t low =
          rng.next_below(2) == 0 ? bytes.size() - 30 : 4;
      const std::size_t offset =
          low + rng.next_below(static_cast<std::uint64_t>(
                    bytes.size() - low));
      bytes[offset] = static_cast<char>(rng.next_below(256));
    }
    netd::FrameDecoder decoder;
    decoder.feed(bytes);
    try {
      std::optional<netd::Frame> frame = decoder.next();
      if (!frame.has_value()) continue;  // mutated length: mid-frame
      const netd::RequestFrame decoded = netd::decode_request(*frame);
      EXPECT_TRUE(core::collective_kind_valid(
          static_cast<std::uint8_t>(decoded.kind)));
    } catch (const netd::ProtocolError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetdRequestFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace aapc
