#include "stats/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <string>

#include "util/check.hpp"

namespace vexsim {
namespace {

TEST(Json, ScalarsAndInsertionOrder) {
  Json j = Json::object();
  j.set("b", 1).set("a", 2.5).set("s", "hi").set("t", true).set("n", Json());
  EXPECT_EQ(j.dump(),
            "{\n"
            "  \"b\": 1,\n"
            "  \"a\": 2.5,\n"
            "  \"s\": \"hi\",\n"
            "  \"t\": true,\n"
            "  \"n\": null\n"
            "}\n");
}

TEST(Json, SetOverwritesInPlace) {
  Json j = Json::object();
  j.set("x", 1).set("y", 2).set("x", 3);
  EXPECT_EQ(j.dump(), "{\n  \"x\": 3,\n  \"y\": 2\n}\n");
}

TEST(Json, NestedArraysAndEmpties) {
  Json arr = Json::array();
  arr.push(1).push(Json::object()).push(Json::array());
  Json j = Json::object();
  j.set("points", std::move(arr));
  EXPECT_EQ(j.dump(),
            "{\n"
            "  \"points\": [\n"
            "    1,\n"
            "    {},\n"
            "    []\n"
            "  ]\n"
            "}\n");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"\n");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"\n");
  EXPECT_EQ(Json("\r\t\x1f ok").dump(), "\"\\r\\t\\u001f ok\"\n");
  // Keys are escaped the same way.
  Json j = Json::object();
  j.set("k\"ey", "v");
  EXPECT_EQ(j.dump(), "{\n  \"k\\\"ey\": \"v\"\n}\n");
  EXPECT_EQ(Json::parse(j.dump()).at("k\"ey").as_string(), "v");
}

TEST(Json, DoubleFormattingRoundTripsAndIsShortest) {
  EXPECT_EQ(Json(0.5).dump(), "0.5\n");
  EXPECT_EQ(Json(1.0).dump(), "1\n");
  // A value needing full precision must survive a parse round trip.
  const double v = 0.1 + 0.2;
  const std::string text = Json(v).dump();
  EXPECT_EQ(std::stod(text), v);
}

// The precision search the writer used before it derived the digit count
// from std::to_chars, kept as the oracle for the current formatter: the
// fewest significant digits, from 1 up, whose "%.*g" spelling scans back to
// exactly the same double.
std::string reference_format_double(double v) {
  if (!std::isfinite(v)) return "null";
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[32];
    std::snprintf(shorter, sizeof shorter, "%.*g", precision, v);
    double parsed = 0.0;
    std::sscanf(shorter, "%lf", &parsed);
    if (parsed == v) return shorter;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Byte equality with the reference, and a parse round trip to an equal
// value ("-0" parses as the integer 0, so -0.0 comes back as +0.0).
void expect_matches_reference(double v) {
  const std::string text = Json(v).dump();
  ASSERT_EQ(text, reference_format_double(v) + "\n")
      << "bits " << std::bit_cast<std::uint64_t>(v);
  ASSERT_EQ(Json::parse(text).as_double(), v) << text;
}

TEST(Json, DoubleFormattingMatchesPrecisionSearchOnRandomDoubles) {
  // Uniform random bit patterns cover the whole exponent range, both signs
  // and subnormals; non-finite patterns are skipped (they emit null).
  std::mt19937_64 rng(20101);
  int checked = 0;
  while (checked < 100'000) {
    const double v = std::bit_cast<double>(rng());
    if (!std::isfinite(v)) continue;
    expect_matches_reference(v);
    ++checked;
  }
  // Values on the scale sweep statistics live at: ratios of small counts.
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    const double num = static_cast<double>(rng() % 2'000'000);
    const double den = static_cast<double>(1 + rng() % 1'000'000);
    expect_matches_reference(num / den);
  }
}

TEST(Json, DoubleFormattingMatchesPrecisionSearchOnPowersOfTwo) {
  // At a power of two the rounding interval below the value is half the
  // width of the one above, the case where the shortest digit count can
  // still fail to round-trip under "%.Pg".
  for (int e = -1074; e <= 1023; ++e) {
    expect_matches_reference(std::ldexp(1.0, e));
    expect_matches_reference(-std::ldexp(1.0, e));
  }
}

TEST(Json, DoubleFormattingMatchesPrecisionSearchOnEdgeValues) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();
  const double two53 = std::ldexp(1.0, 53);
  for (const double v :
       {0.0, -0.0, kMax, -kMax, kMin, -kMin, kDenormMin, -kDenormMin,
        kMin - kDenormMin, std::nextafter(kMin, 0.0), kDenormMin * 3,
        std::nextafter(kMax, 0.0), two53, two53 + 2, two53 - 1, 1e16, 1e17,
        1e21, 1e22, 1e23, 123456789012345678.0, 0.1, 1.0 / 3, 2.0 / 3, 0.3,
        0.1 + 0.2, 1.0, 0.5, 100.0, 1e-5, 1e-7, 5e-324})
    expect_matches_reference(v);
  EXPECT_EQ(Json(-0.0).dump(), "-0\n");
  EXPECT_EQ(Json(0.1).dump(), "0.1\n");
  EXPECT_EQ(Json(1.0 / 3).dump(), "0.3333333333333333\n");
  EXPECT_EQ(Json(1e21).dump(), "1e+21\n");
  EXPECT_EQ(Json(kDenormMin).dump(), "5e-324\n");
  EXPECT_EQ(Json(kMax).dump(), "1.7976931348623157e+308\n");
}

TEST(Json, LargeIntegersAreExact) {
  const std::uint64_t big = ~0ull;
  EXPECT_EQ(Json(big).dump(), "18446744073709551615\n");
  EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42\n");
}

TEST(Json, TypeMisuseThrows) {
  Json scalar(1);
  EXPECT_THROW(scalar.set("k", 2), CheckError);
  EXPECT_THROW(scalar.push(2), CheckError);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), CheckError);
}

TEST(Json, WriteJsonFile) {
  const std::string path =
      testing::TempDir() + "/vexsim_json_test_out.json";
  Json j = Json::object();
  j.set("k", 7);
  write_json_file(path, j);
  std::ifstream is(path);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, j.dump());
  // A document far larger than one write_json_file piece comes out whole.
  Json big = Json::array();
  for (int i = 0; i < 5'000; ++i) {
    Json point = Json::object();
    point.set("label", "point " + std::to_string(i)).set("ipc", i / 7.0);
    big.push(std::move(point));
  }
  write_json_file(path, big);
  std::ifstream big_is(path);
  const std::string big_content((std::istreambuf_iterator<char>(big_is)),
                                std::istreambuf_iterator<char>());
  EXPECT_GT(big_content.size(), 200'000u);
  EXPECT_EQ(big_content, big.dump());
  std::remove(path.c_str());
  EXPECT_THROW(write_json_file("/nonexistent-dir/x.json", j), CheckError);
}

TEST(Json, NonFiniteDoublesEmitNull) {
  // Invalid-JSON tokens like `nan`/`inf` would break every BENCH_*.json
  // consumer; the writer degrades non-finite metrics to null instead.
  EXPECT_EQ(Json(std::nan("")).dump(), "null\n");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null\n");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null\n");
  Json j = Json::object();
  j.set("ipc", std::nan(""));
  j.set("ok", 1.5);
  EXPECT_EQ(j.dump(), "{\n  \"ipc\": null,\n  \"ok\": 1.5\n}\n");
  // The emitted document stays parseable.
  EXPECT_TRUE(Json::parse(j.dump()).at("ipc").is_null());
}

TEST(Json, ParseRoundTripsDumpedDocuments) {
  Json doc = Json::object();
  Json arr = Json::array();
  arr.push(1).push(std::uint64_t{~0ull}).push(std::int64_t{-7}).push(0.25);
  Json inner = Json::object();
  inner.set("name", "a\"b\nc").set("flag", true).set("none", Json());
  arr.push(std::move(inner));
  doc.set("points", std::move(arr)).set("experiment", "x");
  const std::string text = doc.dump();
  EXPECT_EQ(Json::parse(text).dump(), text);
}

TEST(Json, ParseScalarAccessors) {
  const Json doc = Json::parse(
      "{\"u\": 18446744073709551615, \"i\": -42, \"d\": 0.5,"
      " \"s\": \"hi\", \"b\": true, \"n\": null}");
  EXPECT_EQ(doc.at("u").as_uint64(), ~0ull);
  EXPECT_EQ(doc.at("i").as_int64(), -42);
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 0.5);
  EXPECT_EQ(doc.at("s").as_string(), "hi");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_TRUE(doc.at("n").is_null());
  // Small non-negative integers are reachable through either signedness.
  const Json small = Json::parse("{\"v\": 7}");
  EXPECT_EQ(small.at("v").as_int64(), 7);
  EXPECT_EQ(small.at("v").as_uint64(), 7u);
  // find() distinguishes absent from null.
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_NE(doc.find("n"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), CheckError);
}

TEST(Json, ParseArraysAndEscapes) {
  const Json arr = Json::parse("[1, [2, 3], {\"k\": \"a\\u0001\\tb\"}]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.at(std::size_t{0}).as_int64(), 1);
  EXPECT_EQ(arr.at(std::size_t{1}).at(std::size_t{1}).as_int64(), 3);
  EXPECT_EQ(&arr.at(std::size_t{2}).at("k"), arr.at(std::size_t{2}).find("k"));
  EXPECT_EQ(arr.at(std::size_t{2}).at("k").as_string(),
            std::string("a\x01\tb"));
  EXPECT_THROW((void)arr.at(std::size_t{3}), CheckError);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), CheckError);
  EXPECT_THROW((void)Json::parse("{"), CheckError);
  EXPECT_THROW((void)Json::parse("{\"a\": 1,}"), CheckError);
  EXPECT_THROW((void)Json::parse("[1 2]"), CheckError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), CheckError);
  EXPECT_THROW((void)Json::parse("\"bad\\q\""), CheckError);
  EXPECT_THROW((void)Json::parse("nul"), CheckError);
  EXPECT_THROW((void)Json::parse("1 trailing"), CheckError);
  EXPECT_THROW((void)Json::parse("1..5"), CheckError);
  // 2^64 and -2^63-1 overflow their integer representations, and 1e999
  // overflows double; but a subnormal (strtod underflow) is legitimate
  // writer output and must round-trip.
  EXPECT_THROW((void)Json::parse("18446744073709551616"), CheckError);
  EXPECT_THROW((void)Json::parse("-9223372036854775809"), CheckError);
  EXPECT_THROW((void)Json::parse("1e999"), CheckError);
  const double denorm = 5e-324;
  EXPECT_EQ(Json::parse(Json(denorm).dump()).as_double(), denorm);
  EXPECT_EQ(Json::parse("1e-400").as_double(), 0.0);  // underflow: not an error
  // JSON numbers have no leading '+', and the writer never emits one.
  EXPECT_THROW((void)Json::parse("+5"), CheckError);
  EXPECT_THROW((void)Json::parse("+0.5"), CheckError);
  // Duplicate keys are corruption, not last-wins.
  EXPECT_THROW((void)Json::parse("{\"a\": 1, \"a\": 2}"), CheckError);
}

}  // namespace
}  // namespace vexsim
