#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "src/support/json.h"
#include "src/support/logging.h"
#include "src/support/result.h"
#include "src/support/rng.h"
#include "src/support/str.h"

namespace gist {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Error("boom");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().message(), "boom");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_FALSE(Status(Error("x")).ok());
}

TEST(LoggingTest, LevelFilterRoundTrips) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, MacroCompilesForAllLevels) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // silence everything below error
  GIST_LOG(kDebug) << "not shown " << 1;
  GIST_LOG(kInfo) << "not shown " << 2.5;
  GIST_LOG(kWarning) << "not shown " << "three";
  SetLogLevel(original);
  SUCCEED();
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextU64() != b.NextU64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const int64_t value = rng.NextInRange(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.NextDouble();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(rng.NextChance(1, 1));
    EXPECT_FALSE(rng.NextChance(0, 10));
  }
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  // The child stream must not replay the parent's outputs.
  Rng parent_again(42);
  parent_again.Fork();
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) {
    if (child.NextU64() != parent.NextU64()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(StrTest, SplitNonEmpty) {
  auto pieces = SplitNonEmpty("a,,b, c,", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], " c");
}

TEST(StrTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t"), "hi");
  EXPECT_EQ(StripWhitespace("\r\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StrTest, StartsWith) {
  EXPECT_TRUE(StartsWith("global x", "global "));
  EXPECT_FALSE(StartsWith("glob", "global"));
}

TEST(StrTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrTest, HashBytesStable) {
  const uint64_t h1 = HashBytes("abc", 3);
  const uint64_t h2 = HashBytes("abc", 3);
  const uint64_t h3 = HashBytes("abd", 3);
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

TEST(StrTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcde", 4), "abcde");
}

TEST(StrTest, ParseUintIsStrict) {
  uint64_t value = 7;
  EXPECT_TRUE(ParseUint("0", &value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(ParseUint("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_TRUE(ParseUint("4294967295", &value, UINT32_MAX));
  EXPECT_EQ(value, UINT32_MAX);
  // Overflow: one past the type, one past an explicit cap, and a cap below
  // a single digit.
  value = 7;
  for (const char* text : {"18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(ParseUint(text, &value)) << text;
  }
  EXPECT_FALSE(ParseUint("4294967296", &value, UINT32_MAX));
  EXPECT_FALSE(ParseUint("4294967297", &value, UINT32_MAX));
  EXPECT_FALSE(ParseUint("5", &value, 3));
  // Sign, whitespace, trailing garbage, empty input.
  for (const char* text : {"-1", "+1", " 1", "1 ", "1x", "4x", "abc", "0x10", "1.0", ""}) {
    EXPECT_FALSE(ParseUint(text, &value)) << "'" << text << "'";
  }
  EXPECT_EQ(value, 7u);  // failures leave the output untouched
}

TEST(StrTest, ParseIntIsStrict) {
  int64_t value = 7;
  EXPECT_TRUE(ParseInt("-42", &value));
  EXPECT_EQ(value, -42);
  EXPECT_TRUE(ParseInt("9223372036854775807", &value));
  EXPECT_EQ(value, INT64_MAX);
  EXPECT_TRUE(ParseInt("-9223372036854775808", &value));
  EXPECT_EQ(value, INT64_MIN);
  value = 7;
  for (const char* text : {"9223372036854775808", "-9223372036854775809", "+5", "--5", "-",
                           "abc", "12abc", " 3", ""}) {
    EXPECT_FALSE(ParseInt(text, &value)) << "'" << text << "'";
  }
  EXPECT_EQ(value, 7);
}

TEST(JsonTest, ParsesEveryKind) {
  const Result<JsonValue> doc = ParseJson(
      " {\"n\": null, \"t\": true, \"f\": false, \"i\": 42, \"d\": -1.5e3, \"s\": \"a\\\"b\",\n"
      "  \"a\": [1, [], {}], \"o\": {\"k\": \"v\"}} \r\n");
  ASSERT_TRUE(doc.ok()) << doc.error().message();
  EXPECT_EQ(doc->kind, JsonValue::kObject);
  ASSERT_EQ(doc->fields.size(), 8u);
  EXPECT_EQ((*doc)["n"].kind, JsonValue::kNull);
  EXPECT_TRUE((*doc)["t"].boolean);
  EXPECT_EQ((*doc)["f"].kind, JsonValue::kBool);
  EXPECT_FALSE((*doc)["f"].boolean);
  EXPECT_EQ((*doc)["i"].AsU64(), 42u);
  EXPECT_EQ((*doc)["d"].AsDouble(), -1500.0);
  ASSERT_NE((*doc)["s"].AsString(), nullptr);
  EXPECT_EQ(*(*doc)["s"].AsString(), "a\"b");
  EXPECT_EQ((*doc)["a"].items.size(), 3u);
  EXPECT_EQ((*doc)["a"].items[1].kind, JsonValue::kArray);
  EXPECT_EQ((*doc)["a"].items[2].kind, JsonValue::kObject);
  EXPECT_EQ(*(*doc)["o"]["k"].AsString(), "v");
  // Missing keys and lookups on non-objects read as null, so chains are safe.
  EXPECT_EQ((*doc)["missing"]["deeper"].kind, JsonValue::kNull);
  EXPECT_EQ((*doc)["i"]["k"].kind, JsonValue::kNull);
  EXPECT_EQ((*doc)["missing"].AsU64(), std::nullopt);
  EXPECT_EQ((*doc)["s"].AsU64(), std::nullopt);
  EXPECT_EQ((*doc)["i"].AsString(), nullptr);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  const char* kBad[] = {
      "",           " ",          "{",           "}",          "[1,]",        "[,1]",
      "{\"a\":1,}", "{\"a\" 1}",  "{1: 2}",      "{\"a\"}",    "[1 2]",       "01",
      "-",          "-01",        "1.",          ".5",         "1e",          "1e+",
      "+1",         "0x10",       "NaN",         "Infinity",   "nul",         "tru",
      "[true false]", "'a'",      "\"abc",       "\"\\x\"",    "\"\\u12\"",   "\"\\u12g4\"",
      "\"\\ud800\"", "\"\\udc00\"", "\"\\ud800\\u0041\"", "\"a\nb\"", "\"\t\"",
      "[1] x",      "{} {}",      "\"a\" \"b\"",
  };
  for (const char* text : kBad) {
    const Result<JsonValue> doc = ParseJson(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
  }
  // A NUL byte is data, not a terminator.
  EXPECT_FALSE(ParseJson(std::string("[1]\0", 4)).ok());
}

TEST(JsonTest, ErrorsCarryByteOffset) {
  const Result<JsonValue> doc = ParseJson("[1, x]");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.error().message().find("at byte 4"), std::string::npos)
      << doc.error().message();
  const Result<JsonValue> trailing = ParseJson("{}  ]");
  ASSERT_FALSE(trailing.ok());
  EXPECT_NE(trailing.error().message().find("trailing bytes at byte 4"), std::string::npos)
      << trailing.error().message();
}

TEST(JsonTest, NestingDepthIsCapped) {
  const std::string deepest =
      std::string(kJsonMaxDepth, '[') + std::string(kJsonMaxDepth, ']');
  EXPECT_TRUE(ParseJson(deepest).ok());
  const std::string too_deep =
      std::string(kJsonMaxDepth + 1, '[') + std::string(kJsonMaxDepth + 1, ']');
  EXPECT_FALSE(ParseJson(too_deep).ok());
  // Far past the cap: rejected without recursing, so no stack overflow.
  const Result<JsonValue> hostile = ParseJson(std::string(100000, '['));
  ASSERT_FALSE(hostile.ok());
  EXPECT_NE(hostile.error().message().find("nesting too deep"), std::string::npos);
  EXPECT_FALSE(ParseJson(std::string(100000, '{')).ok());
}

TEST(JsonTest, IntegerReadsAreExactAndStrict) {
  auto u64 = [](const char* literal) { return (*ParseJson(literal)).AsU64(); };
  EXPECT_EQ(u64("0"), 0u);
  EXPECT_EQ(u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(u64("9007199254740993"), 9007199254740993u);  // not representable as a double
  EXPECT_EQ(u64("18446744073709551616"), std::nullopt);   // overflow
  EXPECT_EQ(u64("99999999999999999999"), std::nullopt);
  EXPECT_EQ(u64("-1"), std::nullopt);
  EXPECT_EQ(u64("-0"), std::nullopt);
  EXPECT_EQ(u64("1.0"), std::nullopt);
  EXPECT_EQ(u64("1e3"), std::nullopt);
  EXPECT_EQ(u64("\"7\""), std::nullopt);
}

TEST(JsonTest, DoubleReadsMatchStrtod) {
  for (const char* literal : {"0", "-0", "88.2041", "1.32057e+08", "2770.82", "-1.5E-7",
                              "0.0204082", "123456789012345678901234567890", "1e400",
                              "4.9e-324"}) {
    const Result<JsonValue> doc = ParseJson(literal);
    ASSERT_TRUE(doc.ok()) << literal;
    const std::optional<double> value = doc->AsDouble();
    ASSERT_TRUE(value.has_value()) << literal;
    const double expected = std::strtod(literal, nullptr);
    EXPECT_EQ(std::memcmp(&*value, &expected, sizeof(double)), 0) << literal;
  }
  EXPECT_EQ((*ParseJson("true")).AsDouble(), std::nullopt);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  auto text = [](const char* json) { return *(*ParseJson(json)).AsString(); };
  EXPECT_EQ(text("\"\\u0041\\u00e9\\u20AC\""), "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(text("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");
  EXPECT_EQ(text("\"\\u0000\""), std::string(1, '\0'));
  EXPECT_EQ(text("\"\\b\\f\\n\\r\\t\\/\\\\\\\"\""), "\b\f\n\r\t/\\\"");
  // Raw UTF-8 (and any other byte at or above 0x20) passes through.
  EXPECT_EQ(text("\"caf\xc3\xa9 \xe2\x80\xb0\""), "caf\xc3\xa9 \xe2\x80\xb0");
}

TEST(JsonTest, EscapeRoundTripsEveryByte) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\te\x01\x1f\r/"), "a\\\"b\\\\c\\nd\\te\\u0001\\u001f\\u000d/");
  std::string every_byte;
  for (int c = 0; c < 256; ++c) {
    every_byte.push_back(static_cast<char>(c));
  }
  const Result<JsonValue> back = ParseJson("\"" + JsonEscape(every_byte) + "\"");
  ASSERT_TRUE(back.ok()) << back.error().message();
  EXPECT_EQ(*back->AsString(), every_byte);
}

TEST(JsonFuzzTest, RandomBytesNeverCrash) {
  Rng rng(4141);
  const char kAlphabet[] = "{}[]:,\"\\ u0123456789.eE+-truefalsenull\n\t";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const size_t length = rng.NextBelow(200);
    const bool json_ish = trial % 2 == 0;
    for (size_t i = 0; i < length; ++i) {
      text.push_back(json_ish ? kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]
                              : static_cast<char>(rng.NextBelow(256)));
    }
    const Result<JsonValue> doc = ParseJson(text);
    (void)doc;  // error or success; never a crash
  }
  SUCCEED();
}

TEST(JsonFuzzTest, MutatedDocumentsNeverCrash) {
  const std::string valid =
      "{\"schema\": \"gist.x.v1\", \"n\": 18446744073709551615, \"d\": -2.5e-3,\n"
      " \"s\": \"q\\\"\\\\\\u00e9\\ud83d\\ude00\",\n"
      " \"a\": [[1, 2], {\"k\": [true, false, null]}]}\n";
  ASSERT_TRUE(ParseJson(valid).ok());
  Rng rng(4242);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int edits = 1 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < edits; ++i) {
      mutated[rng.NextBelow(mutated.size())] = static_cast<char>(rng.NextBelow(256));
    }
    mutated.resize(rng.NextBelow(mutated.size() + 1));
    const Result<JsonValue> doc = ParseJson(mutated);
    if (doc.ok()) {
      // Whatever parses re-reads through every accessor without trouble.
      (void)(*doc)["a"]["k"].AsU64();
      (void)(*doc)["d"].AsDouble();
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace gist
