// Unit tests for the aapc::common utilities.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aapc/common/cli.hpp"
#include "aapc/common/error.hpp"
#include "aapc/common/json.hpp"
#include "aapc/common/rng.hpp"
#include "aapc/common/strings.hpp"
#include "aapc/common/table.hpp"
#include "aapc/common/units.hpp"

namespace aapc {
namespace {

TEST(ErrorTest, CheckThrowsInternalError) {
  EXPECT_THROW(AAPC_CHECK(1 == 2), InternalError);
  EXPECT_NO_THROW(AAPC_CHECK(1 == 1));
}

TEST(ErrorTest, CheckMessageIncludesExpressionAndDetail) {
  try {
    AAPC_CHECK_MSG(false, "detail " << 42);
    FAIL() << "expected throw";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("false"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("detail 42"), std::string::npos);
  }
}

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW(AAPC_REQUIRE(false, "bad input"), InvalidArgument);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, NextBelowHitsAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(StringsTest, SplitKeepsEmptyTokens) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  const auto parts = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64(" 123 "), 123u);
  EXPECT_THROW(parse_u64("12x"), InvalidArgument);
  EXPECT_THROW(parse_u64(""), InvalidArgument);
  EXPECT_THROW(parse_u64("-1"), InvalidArgument);
  EXPECT_THROW(parse_u64("+1"), InvalidArgument);
}

TEST(StringsTest, ParseU64RejectsValuesPast2To64) {
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_THROW(parse_u64("18446744073709551616"), InvalidArgument);
  // Wrapped to 1 before the read checked overflow.
  EXPECT_THROW(parse_u64("18446744073709551617"), InvalidArgument);
  EXPECT_THROW(parse_u64("99999999999999999999999"), InvalidArgument);
}

TEST(StringsTest, ParseSizeSuffixes) {
  EXPECT_EQ(parse_size("64K"), 64u * 1024);
  EXPECT_EQ(parse_size("2M"), 2u * 1024 * 1024);
  EXPECT_EQ(parse_size("1G"), 1024u * 1024 * 1024);
  EXPECT_EQ(parse_size("100"), 100u);
  EXPECT_EQ(parse_size("100B"), 100u);
}

TEST(StringsTest, ParseSizeRejectsProductsPast2To64) {
  EXPECT_EQ(parse_size("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_size("17179869183G"), 17179869183ull << 30);
  // Wrapped to 0 before the multiply was checked.
  EXPECT_THROW(parse_size("17179869184G"), InvalidArgument);
  EXPECT_THROW(parse_size("18014398509481984K"), InvalidArgument);
  EXPECT_THROW(parse_size("18446744073709551616"), InvalidArgument);
}

TEST(StringsTest, FormatSizeRoundTrips) {
  for (const char* text : {"1K", "64K", "3M", "7", "1G"}) {
    EXPECT_EQ(format_size(parse_size(text)), text);
  }
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ", "), "");
}

TEST(JsonTest, QuoteThenStringReturnsEveryControlByteQuoteAndBackslash) {
  std::string text = "\"\\";
  for (int c = 0; c < 0x20; ++c) text.push_back(static_cast<char>(c));
  text += "plain /";
  const std::string quoted = json::quote(text);
  json::Reader reader(quoted, "test JSON");
  EXPECT_EQ(reader.string(), text);
  reader.finish();
  EXPECT_EQ(json::quote("a\tb\x01"), "\"a\\tb\\u0001\"");
}

TEST(JsonTest, IntegerIsAnExactLiteralWithinBounds) {
  auto read = [](std::string_view text, std::int64_t lo, std::int64_t hi) {
    json::Reader reader(text, "test JSON");
    const std::int64_t value = reader.integer(lo, hi);
    reader.finish();
    return value;
  };
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(read(" -7", -10, 10), -7);
  EXPECT_EQ(read("9223372036854775807", 0, kMax), kMax);
  for (const char* bad : {"3.0", "3e0", "1E3", "+1", "-", "x", "",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_THROW(read(bad, -kMax, kMax), InvalidArgument) << bad;
  }
  EXPECT_THROW(read("11", 0, 10), InvalidArgument);
  EXPECT_THROW(read("-1", 0, 10), InvalidArgument);
}

TEST(TableTest, RenderAlignsColumns) {
  TextTable table;
  table.set_header({"msize", "LAM"});
  table.add_row({"8KB", "29.7"});
  table.add_row({"256KB", "1157"});
  const std::string text = table.render();
  EXPECT_NE(text.find("msize"), std::string::npos);
  EXPECT_NE(text.find("256KB"), std::string::npos);
  EXPECT_NE(text.find("---"), std::string::npos);
}

TEST(TableTest, CsvEscapesSpecials) {
  TextTable table;
  table.add_row({"a,b", "plain", "q\"uote"});
  EXPECT_EQ(table.render_csv(), "\"a,b\",plain,\"q\"\"uote\"\n");
}

TEST(UnitsTest, BandwidthConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(mbps_to_bytes_per_sec(100.0), 12.5e6);
  EXPECT_DOUBLE_EQ(bytes_per_sec_to_mbps(mbps_to_bytes_per_sec(123.0)), 123.0);
}

TEST(UnitsTest, Literals) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
}

TEST(CliTest, ParsesFlagsAndPositionals) {
  CliParser cli("usage");
  cli.add_flag("msize", "message size", "8K");
  cli.add_flag("verbose", "chatty", "false");
  const char* argv[] = {"prog", "--msize=64K", "topo.txt", "--verbose"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get("msize"), "64K");
  EXPECT_EQ(cli.get_u64("msize", 0), 64u * 1024);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "topo.txt");
}

TEST(CliTest, UnknownFlagThrows) {
  CliParser cli("usage");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(CliTest, SeparateValueToken) {
  CliParser cli("usage");
  cli.add_flag("topo", "file");
  const char* argv[] = {"prog", "--topo", "file.topo"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get("topo"), "file.topo");
}

TEST(CliTest, BoundedIntegersRejectValuesAboveTheBound) {
  CliParser cli("usage");
  cli.add_flag("port", "listen port");
  cli.add_flag("threads", "workers");
  cli.add_flag("count", "items");
  const char* argv[] = {"prog", "--port=70000", "--threads=2147483648",
                        "--count=18446744073709551616"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_THROW(cli.get_u64("port", 0, UINT16_MAX), InvalidArgument);
  EXPECT_EQ(cli.get_u64("port", 0, UINT32_MAX), 70000u);
  EXPECT_THROW(cli.get_u64("threads", 0, INT32_MAX), InvalidArgument);
  EXPECT_THROW(cli.get_u64("count", 0), InvalidArgument);
  EXPECT_EQ(cli.get_u64("absent", 7, 7), 7u);
}

TEST(CliTest, DoublesRejectJunkTrailingJunkAndNonFiniteValues) {
  // The whole token must be one finite number, and a bad one throws
  // InvalidArgument naming the flag (the examples print it as FAIL).
  for (const std::string text : {"abc", "5xyz", "nan", "inf", "-inf",
                                 "1e400", ""}) {
    CliParser cli("usage");
    cli.add_flag("rps", "rate");
    const std::string arg = "--rps=" + text;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    try {
      cli.get_double("rps", 0);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--rps"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CliTest, DoublesReadNegativeAndFractionalValues) {
  CliParser cli("usage");
  cli.add_flag("min-hit-rate", "gate", "-1");
  cli.add_flag("rps", "rate");
  cli.add_flag("zipf", "exponent");
  const char* argv[] = {"prog", "--min-hit-rate", "-1", "--rps", "2.5e2",
                        "--zipf=1.1"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_double("min-hit-rate", 0), -1.0);
  EXPECT_EQ(cli.get_double("rps", 0), 250.0);
  EXPECT_EQ(cli.get_double("zipf", 0), 1.1);
  EXPECT_EQ(cli.get_double("absent", 0.5), 0.5);
}

TEST(CliTest, BooleansAcceptSixSpellingsAndRejectTheRest) {
  // A typo must not read as false: --verify ture would otherwise turn
  // verification off without a word.
  for (const std::string text : {"ture", "2", ""}) {
    CliParser cli("usage");
    cli.add_flag("verify", "check answers", "true");
    const std::string arg = "--verify=" + text;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    try {
      cli.get_bool("verify", true);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("--verify"), std::string::npos)
          << e.what();
    }
  }
  for (const auto& [text, expected] :
       std::vector<std::pair<std::string, bool>>{{"true", true},
                                                 {"1", true},
                                                 {"yes", true},
                                                 {"false", false},
                                                 {"0", false},
                                                 {"no", false}}) {
    CliParser cli("usage");
    cli.add_flag("verify", "check answers", "true");
    const std::string arg = "--verify=" + text;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    EXPECT_EQ(cli.get_bool("verify", !expected), expected) << text;
  }
}

TEST(CliTest, DefaultsApply) {
  CliParser cli("usage");
  cli.add_flag("msize", "message size", "8K");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get("msize"), "8K");
  EXPECT_EQ(cli.get_u64("iters", 5), 5u);
}

}  // namespace
}  // namespace aapc
