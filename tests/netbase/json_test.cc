#include "netbase/json.h"

#include <gtest/gtest.h>

namespace xmap::net {
namespace {

JsonValue must_parse(std::string_view text) {
  auto result = json_parse(text);
  EXPECT_TRUE(result.value.has_value()) << result.error.to_string();
  return result.value.value_or(JsonValue{});
}

TEST(Json, Scalars) {
  EXPECT_TRUE(must_parse("null").is_null());
  EXPECT_EQ(must_parse("true").as_bool(), true);
  EXPECT_EQ(must_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(must_parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(must_parse("-3.5").as_number(), -3.5);
  EXPECT_DOUBLE_EQ(must_parse("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(must_parse("2.5E-2").as_number(), 0.025);
  EXPECT_EQ(must_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(must_parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(must_parse(R"("Aé")").as_string(), "A\xc3\xa9");
  EXPECT_EQ(must_parse(R"("中")").as_string(), "\xe4\xb8\xad");
}

TEST(Json, Containers) {
  const auto arr = must_parse("[1, 2, [3, 4], \"x\"]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(arr.as_array()[0].as_number(), 1);
  EXPECT_TRUE(arr.as_array()[2].is_array());

  const auto obj = must_parse(R"({"a": 1, "b": {"c": true}, "d": []})");
  ASSERT_TRUE(obj.is_object());
  EXPECT_DOUBLE_EQ(obj.find("a")->as_number(), 1);
  EXPECT_TRUE(obj.find("b")->find("c")->as_bool());
  EXPECT_TRUE(obj.find("d")->as_array().empty());
  EXPECT_EQ(obj.find("missing"), nullptr);
}

TEST(Json, EmptyContainers) {
  EXPECT_TRUE(must_parse("{}").as_object().empty());
  EXPECT_TRUE(must_parse("[]").as_array().empty());
}

TEST(Json, WhitespaceTolerance) {
  const auto v = must_parse("  {\n\t\"a\" :\r [ 1 , 2 ]\n}  ");
  EXPECT_EQ(v.find("a")->as_array().size(), 2u);
}

TEST(Json, TypedGetters) {
  const auto v = must_parse(R"({"n": 5, "s": "x", "b": true})");
  EXPECT_DOUBLE_EQ(v.number_or("n", 0), 5);
  EXPECT_DOUBLE_EQ(v.number_or("missing", 7), 7);
  EXPECT_DOUBLE_EQ(v.number_or("s", 7), 7);  // wrong type -> fallback
  EXPECT_EQ(v.string_or("s", ""), "x");
  EXPECT_EQ(v.string_or("n", "d"), "d");
  EXPECT_TRUE(v.bool_or("b", false));
  EXPECT_TRUE(v.bool_or("missing", true));
}

struct BadJson {
  const char* text;
  const char* name;
};

// Gives each case a readable, build-independent label; without it gtest
// prints the raw pointer bytes, and test names would change between builds.
void PrintTo(const BadJson& bad, std::ostream* os) { *os << bad.name; }

class JsonRejects : public ::testing::TestWithParam<BadJson> {};

TEST_P(JsonRejects, Rejects) {
  auto result = json_parse(GetParam().text);
  EXPECT_FALSE(result.value.has_value()) << GetParam().text;
  EXPECT_FALSE(result.error.message.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JsonRejects,
    ::testing::Values(BadJson{"", "empty"}, BadJson{"{", "open_object"},
                      BadJson{"[", "open_array"},
                      BadJson{"{\"a\": }", "missing_value"},
                      BadJson{"{\"a\" 1}", "missing_colon"},
                      BadJson{"{a: 1}", "unquoted_key"},
                      BadJson{"[1, 2,]", "trailing_comma"},
                      BadJson{"[1 2]", "missing_comma"},
                      BadJson{"\"unterminated", "unterminated_string"},
                      BadJson{"\"bad\\q\"", "bad_escape"},
                      BadJson{"\"\\u12g4\"", "bad_unicode_escape"},
                      BadJson{"tru", "truncated_true"},
                      BadJson{"nul", "truncated_null"},
                      BadJson{"-", "lone_minus"},
                      BadJson{"1.2.3", "two_decimal_points"},
                      BadJson{"{} extra", "trailing_text"},
                      BadJson{"\"ctrl\x01char\"", "control_char"}));

TEST(Json, ErrorPositionsAreUseful) {
  auto result = json_parse("{\n  \"a\": oops\n}");
  ASSERT_FALSE(result.value.has_value());
  EXPECT_EQ(result.error.line, 2);
  EXPECT_GT(result.error.column, 1);
}

TEST(Json, DeepNestingRejected) {
  std::string evil(100, '[');
  auto result = json_parse(evil);
  EXPECT_FALSE(result.value.has_value());
}

TEST(Json, DumpRoundTrip) {
  const char* doc =
      R"({"arr":[1,2.5,true,null],"nested":{"s":"a\"b"},"z":-3})";
  const auto v = must_parse(doc);
  const auto re = must_parse(v.dump());
  EXPECT_EQ(v, re);
}

TEST(Json, DumpIntegersWithoutDecimalPoint) {
  EXPECT_EQ(JsonValue{42}.dump(), "42");
  EXPECT_EQ(JsonValue{2.5}.dump(), "2.5");
  EXPECT_EQ(JsonValue{"x"}.dump(), "\"x\"");
}

}  // namespace
}  // namespace xmap::net
