// Unit and property tests for the util module: RNG, streaming stats,
// strings, civil time, JSON, CSV, histograms, tables, CLI flags and the
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/json.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"
#include "util/timer_wheel.hpp"

namespace mcb {
namespace {

// ----------------------------------------------------------------- RNG

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BoundedNeverExceedsBound) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.bounded(17), 17U);
}

TEST(Rng, BoundedZeroReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.bounded(0), 0U);
}

TEST(Rng, BoundedCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.bounded(7));
  EXPECT_EQ(seen.size(), 7U);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(13);
  OnlineStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(0.5));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(23);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(static_cast<double>(rng.poisson(3.0)));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.variance(), 3.0, 0.15);
}

TEST(Rng, PoissonLargeMeanNormalApprox) {
  Rng rng(29);
  OnlineStats stats;
  for (int i = 0; i < 50'000; ++i) stats.add(static_cast<double>(rng.poisson(100.0)));
  EXPECT_NEAR(stats.mean(), 100.0, 0.5);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(1);
  EXPECT_EQ(rng.poisson(0.0), 0U);
  EXPECT_EQ(rng.poisson(-1.0), 0U);
}

TEST(Rng, GeometricMean) {
  Rng rng(31);
  OnlineStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(static_cast<double>(rng.geometric(0.25)));
  // mean failures before success = (1-p)/p = 3
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Rng, GeometricProbabilityOneIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.geometric(1.0), 0U);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(37);
  const std::vector<double> weights = {1.0, 3.0};
  int ones = 0;
  for (int i = 0; i < 100'000; ++i) ones += rng.categorical(weights) == 1;
  EXPECT_NEAR(ones / 100'000.0, 0.75, 0.01);
}

TEST(Rng, CategoricalEmptyOrDegenerate) {
  Rng rng(1);
  EXPECT_EQ(rng.categorical(std::vector<double>{}), 0U);
  EXPECT_EQ(rng.categorical(std::vector<double>{0.0, 0.0}), 0U);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(41);
  for (const std::size_t k : {1UL, 5UL, 50UL, 99UL}) {
    const auto sample = rng.sample_indices(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (const auto idx : sample) EXPECT_LT(idx, 100U);
  }
}

TEST(Rng, SampleIndicesKGreaterThanN) {
  Rng rng(43);
  EXPECT_EQ(rng.sample_indices(5, 10).size(), 5U);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(47);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --------------------------------------------------------------- stats

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  Rng rng(59);
  OnlineStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1U);
  b.merge(a);
  EXPECT_EQ(b.count(), 1U);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, KnownQuantiles) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_NEAR(percentile(v, 50), 5.5, 1e-12);
}

TEST(Percentile, Empty) { EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0); }

TEST(PearsonCorrelation, PerfectAndNone) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  const std::vector<double> neg{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, neg), -1.0, 1e-12);
  const std::vector<double> constant{3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, constant), 0.0);
}

// -------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(join(parts, ","), "x,y,z");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-12"), "abc-12"); }

TEST(Strings, IfindCaseInsensitive) {
  EXPECT_EQ(ifind("Content-Length: 12", "content-length:"), 0u);
  EXPECT_EQ(ifind("X: 1\r\nCONTENT-LENGTH: 9", "content-length:"), 6u);
  EXPECT_EQ(ifind("content-type: text", "content-length:"), std::string_view::npos);
}

TEST(Strings, IfindFromOffsetAndEdgeCases) {
  EXPECT_EQ(ifind("abcabc", "abc", 1), 3u);
  EXPECT_EQ(ifind("abcabc", "abc", 4), std::string_view::npos);
  EXPECT_EQ(ifind("short", "longer needle"), std::string_view::npos);
  EXPECT_EQ(ifind("abc", ""), 0u);
  EXPECT_EQ(ifind("abc", "", 3), 3u);
  EXPECT_EQ(ifind("abc", "", 4), std::string_view::npos);
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
  EXPECT_TRUE(ends_with("foobar", "bar"));
  EXPECT_FALSE(ends_with("ar", "bar"));
}

TEST(Strings, WithThousands) {
  EXPECT_EQ(with_thousands(0), "0");
  EXPECT_EQ(with_thousands(999), "999");
  EXPECT_EQ(with_thousands(1000), "1,000");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(-1234567), "-1,234,567");
}

TEST(Strings, ParseI64) {
  std::int64_t v = 0;
  EXPECT_TRUE(parse_i64("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(parse_i64(" 7 ", v));
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(parse_i64("4x", v));
  EXPECT_FALSE(parse_i64("", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
}

TEST(Strings, FormatDouble) { EXPECT_EQ(format_double(3.14159, 2), "3.14"); }

// ----------------------------------------------------------------- time

TEST(CivilTime, KnownEpochs) {
  EXPECT_EQ(timepoint_from_ymd(1970, 1, 1), 0);
  EXPECT_EQ(timepoint_from_ymd(1970, 1, 2), 86'400);
  EXPECT_EQ(timepoint_from_ymd(2024, 2, 1), 1'706'745'600);
}

TEST(CivilTime, RoundTripThroughDays) {
  for (const int year : {1999, 2000, 2023, 2024}) {
    for (const int month : {1, 2, 6, 12}) {
      for (const int day : {1, 15, 28}) {
        const auto days = days_from_civil({year, month, day});
        const CivilDate back = civil_from_days(days);
        EXPECT_EQ(back.year, year);
        EXPECT_EQ(back.month, month);
        EXPECT_EQ(back.day, day);
      }
    }
  }
}

TEST(CivilTime, LeapYearFebruary) {
  // 2024 is a leap year: Feb 29 exists.
  const auto feb29 = timepoint_from_ymd(2024, 2, 29);
  const auto mar1 = timepoint_from_ymd(2024, 3, 1);
  EXPECT_EQ(mar1 - feb29, kSecondsPerDay);
}

TEST(CivilTime, DayIndex) {
  const TimePoint epoch = timepoint_from_ymd(2023, 12, 1);
  EXPECT_EQ(day_index(epoch, epoch), 0);
  EXPECT_EQ(day_index(epoch + kSecondsPerDay - 1, epoch), 0);
  EXPECT_EQ(day_index(epoch + kSecondsPerDay, epoch), 1);
  EXPECT_EQ(day_index(epoch - 1, epoch), -1);
}

TEST(CivilTime, FormatDate) {
  EXPECT_EQ(format_date(timepoint_from_ymd(2024, 2, 29)), "2024-02-29");
  EXPECT_EQ(format_datetime(timepoint_from_ymd(2024, 1, 2) + 3661), "2024-01-02 01:01:01");
}

TEST(CivilTime, ParseDate) {
  TimePoint t = 0;
  EXPECT_TRUE(parse_date("2024-02-01", t));
  EXPECT_EQ(t, timepoint_from_ymd(2024, 2, 1));
  EXPECT_FALSE(parse_date("2024-13-01", t));
  EXPECT_FALSE(parse_date("2024/02/01", t));
  EXPECT_FALSE(parse_date("nonsense", t));
}

// ----------------------------------------------------------------- JSON

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null")->is_null());
  EXPECT_TRUE(Json::parse("true")->as_bool());
  EXPECT_FALSE(Json::parse("false")->as_bool(true));
  EXPECT_DOUBLE_EQ(Json::parse("3.25")->as_double(), 3.25);
  EXPECT_EQ(Json::parse("-17")->as_int(), -17);
  EXPECT_EQ(Json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParseNested) {
  const auto json = Json::parse(R"({"a":[1,2,{"b":true}],"c":"x"})");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ((*json)["a"].size(), 3U);
  EXPECT_TRUE((*json)["a"].as_array()[2]["b"].as_bool());
  EXPECT_EQ((*json)["c"].as_string(), "x");
}

TEST(Json, MissingKeyIsNull) {
  const auto json = Json::parse(R"({"a":1})");
  EXPECT_TRUE((*json)["nope"].is_null());
  EXPECT_FALSE(json->contains("nope"));
  EXPECT_TRUE(json->contains("a"));
}

TEST(Json, DumpParseRoundTrip) {
  Json original = Json::object();
  original.set("name", "mcbound");
  original.set("pi", 3.5);
  original.set("n", static_cast<std::int64_t>(42));
  Json arr = Json::array();
  arr.push_back(1).push_back("two").push_back(Json());
  original.set("list", arr);

  const auto parsed = Json::parse(original.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(Json, EscapesSpecialCharacters) {
  Json j(std::string("a\"b\\c\nd\te"));
  const auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\nd\te");
}

TEST(Json, ParseUnicodeEscape) {
  const auto json = Json::parse(R"("Aé")");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->as_string(), "A\xC3\xA9");
}

TEST(Json, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(Json::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("12 34").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
}

TEST(Json, IntegersSerializeWithoutDecimals) {
  Json j(static_cast<std::int64_t>(1'706'745'600));
  EXPECT_EQ(j.dump(), "1706745600");
}

TEST(Json, PrettyIsReparseable) {
  Json j = Json::object();
  j.set("a", Json::array());
  j.set("b", Json::object());
  const auto parsed = Json::parse(j.pretty());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, j);
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  constexpr std::size_t kCap = JsonReader::kMaxDepth;
  const auto nested = [](std::size_t depth, char open, const std::string& inner, char close) {
    return std::string(depth, open) + inner + std::string(depth, close);
  };
  std::string error;
  EXPECT_TRUE(Json::parse(nested(kCap, '[', "", ']'), &error).has_value()) << error;
  EXPECT_FALSE(Json::parse(nested(kCap + 1, '[', "", ']'), &error).has_value());
  EXPECT_EQ(error, "nesting too deep at offset 64");

  std::string objects = "1";
  for (std::size_t d = 0; d < kCap; ++d) objects = R"({"a":)" + objects + "}";
  EXPECT_TRUE(Json::parse(objects, &error).has_value()) << error;
  EXPECT_FALSE(Json::parse(R"({"a":)" + objects + "}", &error).has_value());
  EXPECT_EQ(error, "nesting too deep at offset " + std::to_string(5 * kCap));

  // A hostile depth fails the same way, without recursing past the cap.
  EXPECT_FALSE(Json::parse(std::string(1'000'000, '['), &error).has_value());
  EXPECT_EQ(error, "nesting too deep at offset 64");
}

TEST(Json, IntegersStayExact) {
  EXPECT_EQ(Json::parse("9007199254740993")->as_int(), 9'007'199'254'740'993);
  EXPECT_EQ(Json::parse("9223372036854775807")->as_int(), INT64_MAX);
  EXPECT_EQ(Json::parse("-9223372036854775808")->as_int(), INT64_MIN);
  EXPECT_EQ(Json(std::int64_t{9'007'199'254'740'993}).dump(), "9007199254740993");
  // Above INT64_MAX up to UINT64_MAX an integer literal stays exact too.
  EXPECT_EQ(Json::parse("9223372036854775808")->dump(), "9223372036854775808");
  EXPECT_EQ(Json::parse("18446744073709551615")->dump(), "18446744073709551615");
  EXPECT_EQ(Json(std::uint64_t{18'446'744'073'709'551'615U}).dump(), "18446744073709551615");
  EXPECT_EQ(*Json::parse("9223372036854775808"), Json(0x1p63));
  EXPECT_EQ(Json::parse("9223372036854775808")->as_int(), INT64_MAX);
  // Past uint64_t, or written as a fraction or exponent: a double.
  EXPECT_DOUBLE_EQ(Json::parse("18446744073709551616")->as_double(), 0x1p64);
  EXPECT_DOUBLE_EQ(Json::parse("1e20")->as_double(), 1e20);
  EXPECT_EQ(Json::parse("1e400")->as_double(), HUGE_VAL);
  EXPECT_EQ(Json::parse("1e400")->dump(), "null");
  // A double past int64_t saturates, as an integer past it does; it
  // never wraps to the other sign.
  EXPECT_EQ(Json::parse("1e19")->as_int(), INT64_MAX);
  EXPECT_EQ(Json::parse("-1e19")->as_int(), INT64_MIN);
  EXPECT_EQ(Json(0x1p63).as_int(), INT64_MAX);
  EXPECT_EQ(Json(-0x1p63).as_int(), INT64_MIN);
  EXPECT_EQ(Json::parse("9.223372036854775808e18")->as_int(), INT64_MAX);
  EXPECT_EQ(Json::parse("-9.223372036854775808e18")->as_int(), INT64_MIN);
  EXPECT_EQ(Json::parse("1e400")->as_int(), INT64_MAX);
  EXPECT_EQ(Json::parse("-1e400")->as_int(), INT64_MIN);
  EXPECT_EQ(Json::parse("9.2e18")->as_int(), 9'200'000'000'000'000'000);
  EXPECT_EQ(Json::parse("-0")->dump(), "0");
  EXPECT_EQ(Json::parse("007")->as_int(), 7);
  // Numbers compare by value, whatever their representation.
  EXPECT_EQ(*Json::parse("2"), *Json::parse("2.0"));
  EXPECT_EQ(*Json::parse("[-0]"), *Json::parse("[0.0]"));
  EXPECT_FALSE(*Json::parse("9007199254740993") == *Json::parse("9007199254740992.0"));
  // Below 2^53 a number prints as before: integral values without decimals.
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(0.5).dump(), "0.5");
  EXPECT_EQ(Json(1e16).dump(), "10000000000000000");
}

TEST(Json, ObjectsKeepTheFirstOfRepeatedKeys) {
  const auto json = Json::parse(R"({"b":1,"a":2,"b":3,"a":{"x":4}})");
  ASSERT_TRUE(json.has_value());
  EXPECT_EQ(json->size(), 2U);
  EXPECT_EQ((*json)["a"].as_int(), 2);
  EXPECT_EQ((*json)["b"].as_int(), 1);
  EXPECT_EQ(json->dump(), R"({"a":2,"b":1})");
  // set() replaces in place and keeps the members sorted.
  Json object = Json::object();
  object.set("z", 1).set("a", 2).set("z", 3);
  EXPECT_EQ(object.dump(), R"({"a":2,"z":3})");
}

TEST(Json, ErrorsNameWhatAndWhere) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "unexpected end of input at offset 0"},
      {"[1,]", "invalid number at offset 3"},
      {"[1 2]", "expected ',' or ']' at offset 4"},
      {R"({"a" 1})", "expected ':' at offset 6"},
      {R"({"a":1,})", "expected string at offset 7"},
      {R"({"a":1)", "unterminated object at offset 6"},
      {"[1", "unterminated array at offset 2"},
      {"tru", "invalid literal at offset 0"},
      {"-", "invalid number at offset 1"},
      {"+-1", "invalid number at offset 3"},
      {R"("a\x")", "unknown escape at offset 4"},
      {R"("\u12G4")", "bad \\u escape at offset 6"},
      {"12 34", "trailing characters at offset 3"},
  };
  for (const auto& [text, expected] : cases) {
    std::string error;
    EXPECT_FALSE(Json::parse(text, &error).has_value()) << text;
    EXPECT_EQ(error, expected) << text;
  }
}

class JsonFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  // Build a random JSON value of bounded depth.
  static Json random_json(Rng& rng, int depth) {
    switch (depth <= 0 ? rng.bounded(4) : rng.bounded(6)) {
      case 0: return Json(nullptr);
      case 1: return Json(rng.bernoulli(0.5));
      case 2: return Json(rng.uniform(-1e6, 1e6));
      case 3: {
        std::string s;
        const int len = static_cast<int>(rng.bounded(12));
        for (int i = 0; i < len; ++i) {
          static constexpr char kChars[] = "ab\"\n\t,:{}[]0987 ";
          s += kChars[rng.bounded(sizeof(kChars) - 1)];
        }
        return Json(s);
      }
      case 4: {
        Json arr = Json::array();
        const int n = static_cast<int>(rng.bounded(4));
        for (int i = 0; i < n; ++i) arr.push_back(random_json(rng, depth - 1));
        return arr;
      }
      default: {
        Json obj = Json::object();
        const int n = static_cast<int>(rng.bounded(4));
        for (int i = 0; i < n; ++i) {
          obj.set("k" + std::to_string(rng.bounded(8)), random_json(rng, depth - 1));
        }
        return obj;
      }
    }
  }
};

TEST_P(JsonFuzzProperty, RandomValuesRoundTripThroughDumpAndPretty) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Json original = random_json(rng, 4);
    const auto compact = Json::parse(original.dump());
    ASSERT_TRUE(compact.has_value()) << original.dump();
    EXPECT_EQ(*compact, original);
    const auto pretty = Json::parse(original.pretty());
    ASSERT_TRUE(pretty.has_value());
    EXPECT_EQ(*pretty, original);
  }
}

TEST_P(JsonFuzzProperty, GarbageNeverCrashesTheParser) {
  Rng rng(GetParam() + 77);
  for (int i = 0; i < 500; ++i) {
    std::string garbage;
    const int len = static_cast<int>(rng.bounded(40));
    for (int c = 0; c < len; ++c) {
      garbage += static_cast<char>(rng.bounded(127) + 1);
    }
    // Must either parse or fail cleanly — never crash or hang.
    std::string error;
    (void)Json::parse(garbage, &error);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzzProperty, ::testing::Values(1, 2, 3, 520, 1905));

// ------------------------------------------------------------------ CSV

TEST(Csv, QuoteOnlyWhenNeeded) {
  EXPECT_EQ(csv_quote("plain"), "plain");
  EXPECT_EQ(csv_quote("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ParseQuotedFields) {
  const auto fields = csv_parse_line(R"(a,"b,c","d""e",f)");
  ASSERT_EQ(fields.size(), 4U);
  EXPECT_EQ(fields[1], "b,c");
  EXPECT_EQ(fields[2], "d\"e");
}

TEST(Csv, RoundTripThroughStream) {
  std::stringstream stream;
  CsvWriter writer(stream);
  const std::vector<std::string> row1{"x", "1,5", "z\"q"};
  const std::vector<std::string> row2{"", "plain", ""};
  writer.write_row(row1);
  writer.write_row(row2);

  CsvReader reader(stream);
  std::vector<std::string> out;
  ASSERT_TRUE(reader.next_row(out));
  EXPECT_EQ(out, row1);
  ASSERT_TRUE(reader.next_row(out));
  EXPECT_EQ(out, row2);
  EXPECT_FALSE(reader.next_row(out));
}

TEST(Csv, SkipsBlankLines) {
  std::stringstream stream("a,b\n\n\nc,d\n");
  CsvReader reader(stream);
  std::vector<std::string> out;
  ASSERT_TRUE(reader.next_row(out));
  ASSERT_TRUE(reader.next_row(out));
  EXPECT_EQ(out[0], "c");
  EXPECT_FALSE(reader.next_row(out));
}

class CsvFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvFuzzProperty, RandomFieldsRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 100; ++round) {
    std::vector<std::string> fields;
    const int n = static_cast<int>(1 + rng.bounded(8));
    for (int f = 0; f < n; ++f) {
      std::string field;
      const int len = static_cast<int>(rng.bounded(20));
      for (int c = 0; c < len; ++c) {
        static constexpr char kChars[] = "abc,\"'; |0123";
        field += kChars[rng.bounded(sizeof(kChars) - 1)];
      }
      fields.push_back(field);
    }
    std::string line = csv_row(fields);
    line.pop_back();  // strip trailing newline
    EXPECT_EQ(csv_parse_line(line), fields);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzProperty, ::testing::Values(11, 22, 33));

TEST(Csv, ToleratesCrLf) {
  std::stringstream stream("a,b\r\nc,d\r\n");
  CsvReader reader(stream);
  std::vector<std::string> out;
  ASSERT_TRUE(reader.next_row(out));
  EXPECT_EQ(out[1], "b");
}

// ------------------------------------------------------------ histogram

TEST(Histogram, BinAssignment) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(5.0);
  EXPECT_EQ(h.bin_count(0), 1U);
  EXPECT_EQ(h.bin_count(9), 1U);
  EXPECT_EQ(h.bin_count(5), 1U);
  EXPECT_EQ(h.total(), 3U);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.bin_count(0), 1U);
  EXPECT_EQ(h.bin_count(3), 1U);
}

TEST(Histogram, WeightedAdd) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 10);
  EXPECT_EQ(h.bin_count(0), 10U);
  EXPECT_EQ(h.total(), 10U);
}

TEST(Histogram, QuantileInterpolation) {
  Histogram h(0.0, 10.0, 10);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty -> lo
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  // Uniform over [0, 10): quantiles track q * 10 to within one bin.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 1.0);
  EXPECT_LE(h.quantile(0.0), h.quantile(1.0));
  EXPECT_LE(h.quantile(1.0), 10.0);
}

TEST(Histogram, QuantileSingleBin) {
  Histogram h(0.0, 8.0, 4);
  h.add(3.0, 10);  // everything in bin [2, 4)
  EXPECT_GE(h.quantile(0.5), 2.0);
  EXPECT_LE(h.quantile(0.5), 4.0);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1, 3);
  const std::string out = h.render();
  EXPECT_NE(out.find("3"), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos);
}

TEST(LogGrid2D, CountsAndBounds) {
  LogGrid2D grid(1e-3, 1e3, 10, 1e-3, 1e3, 10);
  grid.add(1.0, 1.0);
  grid.add(1e-9, 1e9);  // clamped to corner cells
  EXPECT_EQ(grid.total(), 2U);
  std::uint64_t sum = 0;
  for (std::size_t x = 0; x < grid.x_bins(); ++x)
    for (std::size_t y = 0; y < grid.y_bins(); ++y) sum += grid.cell(x, y);
  EXPECT_EQ(sum, 2U);
}

TEST(LogGrid2D, RenderHasAxes) {
  LogGrid2D grid(1e-3, 1e3, 20, 1e-3, 1e3, 5);
  grid.add(0.5, 10.0);
  const std::string out = grid.render(3.3);
  EXPECT_NE(out.find("ridge"), std::string::npos);
  EXPECT_NE(out.find('|'), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(TextTable, AlignsAndRenders) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "15"});
  table.add_row({"beta", "1"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("15"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2U);
}

TEST(TextTable, HandlesRaggedRows) {
  TextTable table({"a"});
  table.add_row({"1", "extra"});
  EXPECT_NE(table.render().find("extra"), std::string::npos);
}

// ------------------------------------------------------------------ CLI

TEST(CliFlags, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "15", "--beta=2", "--name", "rf"};
  auto flags = CliFlags::parse(6, const_cast<char**>(argv), {"alpha", "beta", "name"}, "usage");
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->get_int("alpha", 0), 15);
  EXPECT_EQ(flags->get_int("beta", 0), 2);
  EXPECT_EQ(flags->get("name", ""), "rf");
  EXPECT_EQ(flags->get_int("missing", 7), 7);
}

TEST(CliFlags, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_FALSE(CliFlags::parse(3, const_cast<char**>(argv), {"alpha"}, "usage").has_value());
}

TEST(CliFlags, RejectsMissingValue) {
  const char* argv[] = {"prog", "--alpha"};
  EXPECT_FALSE(CliFlags::parse(2, const_cast<char**>(argv), {"alpha"}, "usage").has_value());
}

TEST(CliFlags, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  auto flags = CliFlags::parse(2, const_cast<char**>(argv), {}, "usage");
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->help_requested());
}

TEST(CliFlags, BoolParsing) {
  const char* argv[] = {"prog", "--x=true", "--y=0", "--z=maybe"};
  auto flags = CliFlags::parse(4, const_cast<char**>(argv), {"x", "y", "z"}, "usage");
  ASSERT_TRUE(flags.has_value());
  EXPECT_TRUE(flags->get_bool("x", false));
  EXPECT_FALSE(flags->get_bool("y", true));
  EXPECT_TRUE(flags->get_bool("z", true));  // unparseable -> fallback
}

// ---------------------------------------------------------- thread pool

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPool) {
  ThreadPool pool(1);
  pool.wait_idle();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPool, TrySubmitShedsWhenSaturated) {
  ThreadPool pool(1);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> entered{false};

  std::function<void()> blocker = [&] {
    entered.store(true);
    released.wait();
  };
  ASSERT_TRUE(pool.try_submit(blocker, 0));  // worker idle: admitted
  while (!entered.load()) std::this_thread::yield();

  std::function<void()> task = [] {};
  EXPECT_FALSE(pool.try_submit(task, 0));  // worker busy, no backlog allowed
  EXPECT_TRUE(task != nullptr);            // rejected task is left intact
  EXPECT_TRUE(pool.try_submit(task, 1));   // one queued slot allowed
  task = [] {};
  EXPECT_FALSE(pool.try_submit(task, 1));  // backlog slot now occupied
  EXPECT_EQ(pool.pending(), 1U);
  EXPECT_EQ(pool.in_flight(), 1U);

  release.set_value();
  pool.wait_idle();
  EXPECT_TRUE(pool.try_submit(task, 0));  // idle again
  pool.wait_idle();
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_each(&pool, 0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackWithNullPool) {
  int sum = 0;
  parallel_for_each(nullptr, 0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(&pool, 5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for_each(&pool, 0, 100,
                        [](std::size_t i) {
                          if (i == 50) throw std::runtime_error("boom");
                        },
                        1),
      std::runtime_error);
  pool.wait_idle();
}

// ---------------------------------------------------------- TimerWheel

TEST(TimerWheel, FiresAtOrAfterDeadline) {
  TimerWheel wheel(10, 8);
  wheel.schedule(1, 25);  // rounds up to 3 ticks = 30ms
  std::vector<std::uint64_t> expired;
  wheel.advance(20, expired);
  EXPECT_TRUE(expired.empty());  // must not fire early
  wheel.advance(30, expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, ZeroDelayFiresOnNextTick) {
  TimerWheel wheel(10, 8);
  wheel.schedule(7, 0);
  std::vector<std::uint64_t> expired;
  wheel.advance(0, expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(10, expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 7u);
}

TEST(TimerWheel, LongDelayLapsTheWheelWithoutFiringEarly) {
  // 8 slots * 10ms = one 80ms lap; a 200ms timer shares a slot with
  // earlier laps and must stay parked until its own lap comes around.
  TimerWheel wheel(10, 8);
  wheel.schedule(1, 200);
  wheel.schedule(2, 40);
  std::vector<std::uint64_t> expired;
  wheel.advance(40, expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 2u);
  expired.clear();
  wheel.advance(190, expired);
  EXPECT_TRUE(expired.empty());
  wheel.advance(200, expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
}

TEST(TimerWheel, ManyTimersAllFireExactlyOnce) {
  TimerWheel wheel(10, 16);
  constexpr std::uint64_t kCount = 500;
  for (std::uint64_t id = 0; id < kCount; ++id) wheel.schedule(id, (id * 7) % 400);
  EXPECT_EQ(wheel.armed(), kCount);
  std::vector<std::uint64_t> all;
  std::vector<std::uint64_t> expired;
  for (std::uint64_t now = 0; now <= 500; now += 10) {
    expired.clear();
    wheel.advance(now, expired);
    all.insert(all.end(), expired.begin(), expired.end());
  }
  EXPECT_EQ(all.size(), kCount);
  EXPECT_EQ(std::set<std::uint64_t>(all.begin(), all.end()).size(), kCount);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(TimerWheel, AdvanceIsIdempotentForPastTime) {
  TimerWheel wheel(10, 8);
  wheel.schedule(3, 50);
  std::vector<std::uint64_t> expired;
  wheel.advance(100, expired);
  ASSERT_EQ(expired.size(), 1u);
  expired.clear();
  wheel.advance(100, expired);  // same timestamp again: nothing to do
  wheel.advance(60, expired);   // time going backwards is ignored
  EXPECT_TRUE(expired.empty());
}

// -------------------------------------------------------- net helpers

TEST(Net, SomaxconnIsPositiveAndSane) {
  const int value = somaxconn();
  EXPECT_GT(value, 0);
  EXPECT_LE(value, 1 << 20);
}

TEST(Net, RaiseNofileLimitNeverLowers) {
  // Whatever the environment allows, the result must be at least the
  // current soft limit and never exceed the hard limit semantics-wise
  // (raise_nofile_limit only raises).
  const std::uint64_t before = raise_nofile_limit(0);
  const std::uint64_t after = raise_nofile_limit(before + 1024);
  EXPECT_GE(after, before);
}

}  // namespace
}  // namespace mcb
