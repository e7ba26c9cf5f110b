#include "net/json.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

namespace declsched::net {
namespace {

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).MoveValue() : JsonValue();
}

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(MustParse("null").is_null());
  EXPECT_EQ(MustParse("true").AsBool(), true);
  EXPECT_EQ(MustParse("false").AsBool(), false);
  EXPECT_EQ(MustParse("42").AsInt64(), 42);
  EXPECT_EQ(MustParse("-7").AsInt64(), -7);
  EXPECT_DOUBLE_EQ(MustParse("2.5").AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(MustParse("1e3").AsDouble(), 1000.0);
  EXPECT_EQ(MustParse("\"hi\"").AsString(), "hi");
}

TEST(JsonTest, ParsesNestedStructure) {
  const JsonValue v = MustParse(
      R"({"tenant":3,"txns":[{"ops":[{"op":"write","object":9}]}]})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Get("tenant")->AsInt64(), 3);
  const JsonValue* txns = v.Get("txns");
  ASSERT_TRUE(txns != nullptr && txns->is_array());
  ASSERT_EQ(txns->size(), 1u);
  const JsonValue* ops = txns->at(0).Get("ops");
  ASSERT_TRUE(ops != nullptr && ops->is_array());
  EXPECT_EQ(ops->at(0).Get("op")->AsString(), "write");
  EXPECT_EQ(ops->at(0).Get("object")->AsInt64(), 9);
}

TEST(JsonTest, HostileNumbersConvertWithoutOverflow) {
  // Whole numbers in range are int64, however written.
  for (const char* whole : {"0", "-7", "2.0", "1e3", "-9223372036854775808",
                            "9223372036854775807"}) {
    EXPECT_TRUE(MustParse(whole).is_int64()) << whole;
  }
  EXPECT_EQ(MustParse("1e3").AsInt64(), 1000);
  // Fractions, and magnitudes past int64 (integer literals included: the
  // parser keeps them as doubles), are not — and converting them anyway is
  // defined: truncated toward zero, clamped to the int64 range.
  for (const char* hostile :
       {"1.9", "-0.5", "1e30", "-1e30", "1e308", "9223372036854775808",
        "99999999999999999999", "-99999999999999999999"}) {
    const JsonValue v = MustParse(hostile);
    EXPECT_TRUE(v.is_number()) << hostile;
    EXPECT_FALSE(v.is_int64()) << hostile;
  }
  EXPECT_EQ(MustParse("1.9").AsInt64(), 1);
  EXPECT_EQ(MustParse("-0.5").AsInt64(), 0);
  EXPECT_EQ(MustParse("1e30").AsInt64(), INT64_MAX);
  EXPECT_EQ(MustParse("-1e30").AsInt64(), INT64_MIN);
  EXPECT_EQ(MustParse("99999999999999999999").AsInt64(), INT64_MAX);
  EXPECT_EQ(MustParse(R"({"tenant":1e30})").Get("tenant")->AsInt64(),
            INT64_MAX);
  EXPECT_FALSE(MustParse("\"7\"").is_int64());
}

TEST(JsonTest, GetOnAbsentKeyOrNonObjectIsNull) {
  const JsonValue v = MustParse(R"({"a":1})");
  EXPECT_EQ(v.Get("b"), nullptr);
  EXPECT_EQ(MustParse("[1]").Get("a"), nullptr);
}

TEST(JsonTest, StringEscapes) {
  EXPECT_EQ(MustParse(R"("a\"b\\c\nd\te")").AsString(), "a\"b\\c\nd\te");
  // \uXXXX decodes to UTF-8.
  EXPECT_EQ(MustParse(R"("\u0041")").AsString(), "A");
  EXPECT_EQ(MustParse(R"("\u00e9")").AsString(), "\xc3\xa9");
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "1 2",
        "\"unterminated", "{\"a\":1}garbage", "[1,]", "nan", "+1"}) {
    Result<JsonValue> parsed = JsonValue::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(10000, '[');
  deep += std::string(10000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonTest, DumpRoundTrips) {
  const std::string compact =
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-2}})";
  EXPECT_EQ(MustParse(compact).Dump(), compact);
}

TEST(JsonTest, BuildAndDump) {
  JsonValue obj = JsonValue::Object();
  obj.Set("n", JsonValue::Int(5));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Str("a\"b"));
  obj.Set("list", std::move(arr));
  EXPECT_EQ(obj.Dump(), R"({"n":5,"list":["a\"b"]})");
}

TEST(JsonTest, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

}  // namespace
}  // namespace declsched::net
