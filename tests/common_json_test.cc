// JSON parser nesting limit: input nested deeper than kMaxParseDepth is a
// parse error, not a stack overflow, and input at the limit still parses.
#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace eo::json {
namespace {

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

std::string nested_objects(int depth) {
  std::string s;
  for (int i = 0; i < depth; ++i) s += "{\"k\":";
  s += "1";
  s += std::string(static_cast<std::size_t>(depth), '}');
  return s;
}

TEST(JsonParse, AcceptsNestingAtTheLimit) {
  Value v;
  std::string err;
  EXPECT_TRUE(parse(nested_arrays(kMaxParseDepth), &v, &err)) << err;
  EXPECT_TRUE(parse(nested_objects(kMaxParseDepth), &v, &err)) << err;
}

TEST(JsonParse, RejectsNestingPastTheLimit) {
  Value v;
  std::string err;
  EXPECT_FALSE(parse(nested_arrays(kMaxParseDepth + 1), &v, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  EXPECT_FALSE(parse(nested_objects(kMaxParseDepth + 1), &v, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

TEST(JsonParse, RejectsDeepUnclosedInputWithoutStackOverflow) {
  // Recursing once per '[' here overflows the stack of an unbounded parser.
  Value v;
  std::string err;
  EXPECT_FALSE(parse(std::string(200000, '['), &v, &err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

}  // namespace
}  // namespace eo::json
