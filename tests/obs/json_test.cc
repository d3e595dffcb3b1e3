#include "obs/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "common/status.h"

namespace ireduct {
namespace obs {
namespace {

using Kind = JsonValue::Kind;

TEST(JsonParseTest, ReadsEveryKind) {
  auto doc = JsonParse(
      R"( {"n":null,"t":true,"f":false,"x":-2.5,"s":"hi","a":[1,[]],"o":{}} )");
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_TRUE(doc->is(Kind::kObject));
  ASSERT_EQ(doc->object.size(), 7u);
  EXPECT_EQ(doc->object[0].first, "n");  // members keep their order
  EXPECT_TRUE(doc->Find("n")->is(Kind::kNull));
  EXPECT_TRUE(doc->Find("t")->boolean);
  EXPECT_FALSE(doc->Find("f")->boolean);
  EXPECT_EQ(doc->Find("x")->number, -2.5);
  EXPECT_EQ(doc->Find("s")->text, "hi");
  EXPECT_EQ(doc->Find("a")->array.size(), 2u);
  EXPECT_TRUE(doc->Find("o")->is(Kind::kObject));
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParseTest, IsStrict) {
  for (const char* bad :
       {"", " ", "{", "[1,2", "[1,]", "{\"a\":1,}", "{\"a\" 1}", "{a:1}",
        "[1] 2", "tru", "nul", "\"open", "\"\\q\"", "\"\\u12\"", "\"\\u12g4\"",
        "1.2.3", "--1", "1e", "0x10", "+", "'a'"}) {
    auto doc = JsonParse(bad);
    ASSERT_FALSE(doc.ok()) << "accepted: " << bad;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(doc.status().message().find("offset"), std::string::npos);
  }
}

// A number keeps its raw token beside the double, so integer readers can
// refuse what a double would round.
TEST(JsonParseTest, NumbersKeepTheirRawToken) {
  auto doc = JsonParse("[18446744073709551615,1e3,-0,0.30000000000000004]");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->array[0].text, "18446744073709551615");
  EXPECT_EQ(doc->array[0].number, 18446744073709551615.0);
  EXPECT_EQ(doc->array[1].text, "1e3");
  EXPECT_EQ(doc->array[1].number, 1000);
  EXPECT_TRUE(std::signbit(doc->array[2].number));
  EXPECT_EQ(doc->array[3].number, 0.1 + 0.2);
}

TEST(JsonParseTest, RefusesNumbersBeyondADouble) {
  for (const char* bad :
       {"1e999", "-1e999", "[1e309]", "{\"epsilon\":1e999}"}) {
    EXPECT_FALSE(JsonParse(bad).ok()) << bad;
  }
  auto max = JsonParse("1.7976931348623157e308");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->number, std::numeric_limits<double>::max());
}

TEST(JsonParseTest, DecodesEscapesToUtf8) {
  auto doc = JsonParse(
      R"(["\"\\\/\n\r\t","\u0000\u001f","\u00e9","\u20ac","\ud83d\ude00",)"
      R"("\u0174\u0131"])");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->array[0].text, "\"\\/\n\r\t");
  EXPECT_EQ(doc->array[1].text, std::string("\0\x1f", 2));
  EXPECT_EQ(doc->array[2].text, "\xc3\xa9");
  EXPECT_EQ(doc->array[3].text, "\xe2\x82\xac");
  EXPECT_EQ(doc->array[4].text, "\xf0\x9f\x98\x80");
  // Each escape is one code point, not its low byte: this is not "t1".
  EXPECT_EQ(doc->array[5].text, "\xc5\xb4\xc4\xb1");
}

TEST(JsonParseTest, RefusesLoneSurrogates) {
  for (const char* bad : {R"("\ud83d")", R"("\ud83dx")", R"("\ud83d\u0041")",
                          R"("\ude00")", R"("\ude00\ud83d")"}) {
    EXPECT_FALSE(JsonParse(bad).ok()) << bad;
  }
}

// What EscapeJson writes, JsonParse reads back byte for byte.
TEST(JsonParseTest, EscapeJsonRoundTrips) {
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  auto doc = JsonParse('"' + EscapeJson(all) + '"');
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc->text, all);
}

TEST(JsonParseTest, RefusesRepeatedKeys) {
  for (const char* bad :
       {R"({"a":1,"a":2})", R"({"epsilon":0.1,"tenant":"t","epsilon":5})",
        R"({"o":{"k":1,"k":1}})", R"([{"x":1},{"y":2,"y":2}])",
        R"({"id":1,"\u0069d":2})"}) {
    auto doc = JsonParse(bad);
    ASSERT_FALSE(doc.ok()) << bad;
    EXPECT_NE(doc.status().message().find("repeated key"), std::string::npos)
        << doc.status();
  }
  // The same key in sibling objects is not a repeat.
  EXPECT_TRUE(JsonParse(R"([{"a":1},{"a":2},{"b":{"a":3}}])").ok());
}

// Refuses a repeated key among many members without a quadratic scan.
TEST(JsonParseTest, RefusesARepeatedKeyAmongManyMembers) {
  std::string doc = "{";
  for (int i = 0; i < 100000; ++i) doc += "\"k" + std::to_string(i) + "\":0,";
  EXPECT_TRUE(JsonParse(doc + "\"last\":0}").ok());
  EXPECT_FALSE(JsonParse(doc + "\"k5\":0}").ok());
}

TEST(JsonParseTest, BoundsNesting) {
  const auto nested = [](size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonParse(nested(kMaxJsonDepth)).ok());
  EXPECT_FALSE(JsonParse(nested(kMaxJsonDepth + 1)).ok());
  std::string objects;
  for (size_t i = 0; i < kMaxJsonDepth; ++i) objects += "{\"a\":";
  EXPECT_TRUE(JsonParse(objects + "1" + std::string(kMaxJsonDepth, '}')).ok());
  // Depth is nesting, not the number of containers.
  std::string siblings = "[";
  for (int i = 0; i < 1000; ++i) siblings += nested(kMaxJsonDepth - 1) + ",";
  EXPECT_TRUE(JsonParse(siblings + "1]").ok());
  // A hostile line far deeper than any stack would hold is refused.
  auto deep = JsonParse(std::string(100000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_NE(deep.status().message().find("nesting"), std::string::npos);
  EXPECT_FALSE(JsonParse(std::string(100000, '{')).ok());
}

TEST(JsonReaderTest, UnsignedIsExact) {
  auto doc = JsonParse(
      R"({"max":18446744073709551615,"zero":0,"big":9007199254740993,)"
      R"("over":18446744073709551616,"neg":-1,"negzero":-0,"frac":1.0,)"
      R"("exp":1e0,"plus":+1,"lead":01,"str":"1"})");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(*doc->GetUnsigned("max"), std::numeric_limits<uint64_t>::max());
  EXPECT_EQ(*doc->GetUnsigned("zero"), 0u);
  // 2^53 + 1 has no double; the token keeps it.
  EXPECT_EQ(*doc->GetUnsigned("big"), 9007199254740993u);
  EXPECT_EQ(*doc->GetUnsigned("lead"), 1u);
  for (const char* key :
       {"over", "neg", "negzero", "frac", "exp", "plus", "str", "absent"}) {
    auto value = doc->GetUnsigned(key);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(value.status().message().find(std::string("'") + key + "'"),
              std::string::npos)
        << value.status();
  }
  EXPECT_TRUE(doc->GetUnsigned("zero", 0).ok());
  auto over = doc->GetUnsigned("big", 1000);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("integer"), std::string::npos);
  EXPECT_EQ(*doc->Find("max")->AsUnsigned("max"),
            std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(doc->Find("neg")->AsUnsigned("neg").ok());
}

TEST(JsonReaderTest, DoubleIsTheParsedNumber) {
  std::string written;
  JsonWriter w(&written);
  w.BeginObject();
  const char* const keys[] = {"sum", "carry", "denormal", "max", "negzero"};
  const double values[] = {0.1 + 0.2, -4.440892098500626e-16, 5e-324,
                           std::numeric_limits<double>::max(), -0.0};
  for (size_t i = 0; i < std::size(values); ++i) w.KV(keys[i], values[i]);
  w.EndObject();
  auto doc = JsonParse(written);
  ASSERT_TRUE(doc.ok()) << doc.status();
  for (size_t i = 0; i < std::size(values); ++i) {
    auto read = doc->GetDouble(keys[i]);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_EQ(std::bit_cast<uint64_t>(*read),
              std::bit_cast<uint64_t>(values[i]));
  }
  EXPECT_FALSE(doc->GetDouble("absent").ok());
  auto text = JsonParse(R"({"inf":"inf","n":[1.5,"x"]})");
  ASSERT_TRUE(text.ok());
  EXPECT_FALSE(text->GetDouble("inf").ok());  // non-finite writes stay text
  EXPECT_FALSE(text->GetDoubles("n").ok());
  EXPECT_FALSE(text->GetDoubles("inf").ok());
}

TEST(JsonReaderTest, KindsAreChecked) {
  auto doc = JsonParse(R"({"s":"x","b":true,"n":1,"a":[],"o":{}})");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->GetString("s"), "x");
  EXPECT_FALSE(doc->GetString("n").ok());
  EXPECT_FALSE(doc->GetString("absent").ok());
  EXPECT_EQ(*doc->Find("b")->AsBool("b"), true);
  EXPECT_FALSE(doc->Find("n")->AsBool("n").ok());
  EXPECT_FALSE(doc->Find("s")->AsDouble("s").ok());
  EXPECT_TRUE(doc->Get("a", Kind::kArray).ok());
  auto wrong = doc->Get("o", Kind::kArray);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().message(), "field 'o' must be an array");
  auto missing = doc->Get("z", Kind::kObject);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().message(), "field 'z' must be an object");
}

TEST(JsonWriterTest, JsonTokenMatchesTheWriter) {
  for (const double v : {1.5, -0.0, std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    std::string written;
    JsonWriter(&written).Double(v);
    EXPECT_EQ(JsonToken(v), written);
  }
  EXPECT_EQ(JsonToken(std::numeric_limits<double>::infinity()), "\"inf\"");
}

}  // namespace
}  // namespace obs
}  // namespace ireduct
