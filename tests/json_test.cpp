// util/json: escaping, writer/parser round-trips, and the RunResult
// serialization the bench harness stores in BENCH_*.json files.
#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "sim/experiment.h"

namespace rtmp {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(util::JsonEscape("dma-sr beats afd-ofu"),
            "dma-sr beats afd-ofu");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(util::JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::JsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(util::JsonEscape("\b\f"), "\\b\\f");
  EXPECT_EQ(util::JsonEscape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscapeTest, LeavesUtf8Intact) {
  EXPECT_EQ(util::JsonEscape("µJ → nJ"), "µJ → nJ");
}

TEST(JsonWriterTest, CompactObject) {
  std::string out;
  util::JsonWriter writer(&out, /*indent=*/0);
  writer.BeginObject();
  writer.Member("name", "gsm");
  writer.Member("dbcs", 8u);
  writer.Member("ok", true);
  writer.Key("tags");
  writer.BeginArray();
  writer.String("a\"b");
  writer.Null();
  writer.EndArray();
  writer.EndObject();
  EXPECT_EQ(out, R"({"name":"gsm","dbcs":8,"ok":true,"tags":["a\"b",null]})");
}

TEST(JsonWriterTest, PrettyPrintsNestedStructures) {
  std::string out;
  util::JsonWriter writer(&out, /*indent=*/2);
  writer.BeginObject();
  writer.Member("empty_list", false);
  writer.Key("cells");
  writer.BeginArray();
  writer.BeginObject();
  writer.Member("shifts", std::uint64_t{42});
  writer.EndObject();
  writer.EndArray();
  writer.EndObject();
  EXPECT_EQ(out,
            "{\n  \"empty_list\": false,\n  \"cells\": [\n    {\n"
            "      \"shifts\": 42\n    }\n  ]\n}");
}

TEST(JsonWriterTest, EmptyContainersStayOnOneLine) {
  std::string out;
  util::JsonWriter writer(&out, /*indent=*/2);
  writer.BeginObject();
  writer.Key("cells");
  writer.BeginArray();
  writer.EndArray();
  writer.EndObject();
  EXPECT_EQ(out, "{\n  \"cells\": []\n}");
}

TEST(JsonWriterTest, RejectsObjectMisuse) {
  std::string out;
  util::JsonWriter writer(&out, 0);
  writer.BeginObject();
  // A value inside an object needs a preceding Key().
  EXPECT_THROW(writer.Int(1), std::runtime_error);
  writer.Key("a");
  // Two keys in a row: the first still awaits its value.
  EXPECT_THROW(writer.Key("b"), std::runtime_error);
}

TEST(JsonWriterTest, RejectsUnbalancedOrMismatchedEnds) {
  std::string out;
  util::JsonWriter writer(&out, 0);
  EXPECT_THROW(writer.EndObject(), std::runtime_error);
  EXPECT_THROW(writer.Key("top-level"), std::runtime_error);
  writer.BeginObject();
  EXPECT_THROW(writer.EndArray(), std::runtime_error);
  writer.Key("a");
  // The key still awaits its value.
  EXPECT_THROW(writer.EndObject(), std::runtime_error);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  EXPECT_EQ(util::JsonNumber(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(util::JsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "null");
}

TEST(JsonParseTest, NullReadsBackAsNaN) {
  // The writer stores non-finite doubles as null; loading one back must
  // not throw, it yields NaN.
  EXPECT_TRUE(std::isnan(util::JsonValue::Parse("null").AsDouble()));
}

TEST(JsonParseTest, ParsesScalars) {
  EXPECT_EQ(util::JsonValue::Parse("true").AsBool(), true);
  EXPECT_EQ(util::JsonValue::Parse("\"hi\"").AsString(), "hi");
  EXPECT_EQ(util::JsonValue::Parse("-12").AsInt(), -12);
  EXPECT_DOUBLE_EQ(util::JsonValue::Parse("2.5e3").AsDouble(), 2500.0);
  EXPECT_EQ(util::JsonValue::Parse("null").kind(),
            util::JsonValue::Kind::kNull);
}

TEST(JsonParseTest, LargeCountersRoundTripExactly) {
  // A shift counter beyond 2^53 would lose precision through a double;
  // the raw-text number representation must not.
  const std::uint64_t big = 0xFFFFFFFFFFFFFFFFULL;
  std::string out;
  util::JsonWriter writer(&out, 0);
  writer.UInt(big);
  EXPECT_EQ(util::JsonValue::Parse(out).AsUInt(), big);
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  const auto value = util::JsonValue::Parse(R"("a\u0041\n\u00b5\ud83d\ude00")");
  EXPECT_EQ(value.AsString(), "aA\nµ😀");
}

TEST(JsonParseTest, ObjectLookup) {
  const auto value =
      util::JsonValue::Parse(R"({"a": 1, "b": {"c": [1, 2, 3]}})");
  EXPECT_EQ(value.At("a").AsInt(), 1);
  EXPECT_EQ(value.At("b").At("c").Items().size(), 3u);
  EXPECT_EQ(value.Find("missing"), nullptr);
  EXPECT_THROW((void)value.At("missing"), std::runtime_error);
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_THROW((void)util::JsonValue::Parse("{"), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("tru"), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("1 2"), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("\"unterminated"),
               std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("\"\\ud800\""),
               std::runtime_error);
}

TEST(JsonParseTest, RejectsKindMismatches) {
  const auto value = util::JsonValue::Parse("[1]");
  EXPECT_THROW((void)value.AsBool(), std::runtime_error);
  EXPECT_THROW((void)value.AsString(), std::runtime_error);
  EXPECT_THROW((void)value.Members(), std::runtime_error);
  EXPECT_THROW((void)value.Items()[0].AsString(), std::runtime_error);
  EXPECT_THROW((void)util::JsonValue::Parse("1.5").AsUInt(),
               std::runtime_error);
}

TEST(RunResultJsonTest, AllFieldsRoundTrip) {
  sim::RunResult result;
  result.benchmark = "gsm \"quoted\"";
  result.dbcs = 8;
  result.strategy_name = "dma-sr";
  result.metrics.shifts = 123456789012345ULL;
  result.metrics.accesses = 987654321ULL;
  result.metrics.runtime_ns = 1.25e6;
  result.metrics.leakage_pj = 0.0625;
  result.metrics.read_write_pj = 17.5;
  result.metrics.shift_pj = 3.141592653589793;
  result.metrics.area_mm2 = 0.0181;
  result.placement_cost = 123456789012345ULL;
  result.placement_wall_ms = 1.5;
  result.search_evaluations = 60000;

  std::string out;
  util::JsonWriter writer(&out, 2);
  WriteJson(writer, result);
  const sim::RunResult back =
      sim::RunResultFromJson(util::JsonValue::Parse(out));

  EXPECT_EQ(back.benchmark, result.benchmark);
  EXPECT_EQ(back.dbcs, result.dbcs);
  EXPECT_EQ(back.strategy_name, result.strategy_name);
  EXPECT_EQ(back.metrics.shifts, result.metrics.shifts);
  EXPECT_EQ(back.metrics.accesses, result.metrics.accesses);
  // Doubles go through shortest-round-trip formatting: bit-exact.
  EXPECT_EQ(back.metrics.runtime_ns, result.metrics.runtime_ns);
  EXPECT_EQ(back.metrics.leakage_pj, result.metrics.leakage_pj);
  EXPECT_EQ(back.metrics.read_write_pj, result.metrics.read_write_pj);
  EXPECT_EQ(back.metrics.shift_pj, result.metrics.shift_pj);
  EXPECT_EQ(back.metrics.area_mm2, result.metrics.area_mm2);
  EXPECT_EQ(back.placement_cost, result.placement_cost);
  EXPECT_EQ(back.placement_wall_ms, result.placement_wall_ms);
  EXPECT_EQ(back.search_evaluations, result.search_evaluations);
}

TEST(RunResultJsonTest, UnregisteredStrategyNameRoundTrips) {
  sim::RunResult result;
  result.benchmark = "b";
  result.strategy_name = "my-external-strategy";
  std::string out;
  util::JsonWriter writer(&out, 0);
  WriteJson(writer, result);
  const sim::RunResult back =
      sim::RunResultFromJson(util::JsonValue::Parse(out));
  EXPECT_EQ(back.strategy_name, "my-external-strategy");
}

TEST(RunResultJsonTest, MissingFieldThrows) {
  EXPECT_THROW(
      (void)sim::RunResultFromJson(util::JsonValue::Parse("{\"dbcs\": 4}")),
      std::runtime_error);
}

}  // namespace
}  // namespace rtmp
