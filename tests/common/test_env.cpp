#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace mifo {
namespace {

TEST(Env, U64Fallback) {
  ::unsetenv("MIFO_TEST_U64");
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 42), 42u);
}

TEST(Env, U64Parses) {
  ::setenv("MIFO_TEST_U64", "1234", 1);
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 0), 1234u);
  ::unsetenv("MIFO_TEST_U64");
}

TEST(Env, U64GarbageFallsBack) {
  ::setenv("MIFO_TEST_U64", "12x", 1);
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 9), 9u);
  ::setenv("MIFO_TEST_U64", "", 1);
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 9), 9u);
  ::unsetenv("MIFO_TEST_U64");
}

TEST(Env, DoubleParses) {
  ::setenv("MIFO_TEST_D", "0.75", 1);
  EXPECT_DOUBLE_EQ(env_double("MIFO_TEST_D", 0.0), 0.75);
  ::unsetenv("MIFO_TEST_D");
  EXPECT_DOUBLE_EQ(env_double("MIFO_TEST_D", 0.5), 0.5);
}

TEST(Env, ParseU64IsStrict) {
  EXPECT_EQ(parse_u64("0").value_or(1), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615").value_or(0), ~std::uint64_t{0});
  EXPECT_FALSE(parse_u64(nullptr));
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("-5"));  // strtoull alone would wrap to 2^64-5
  EXPECT_FALSE(parse_u64("+5"));
  EXPECT_FALSE(parse_u64(" 5"));
  EXPECT_FALSE(parse_u64("5 "));
  EXPECT_FALSE(parse_u64("abc"));
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // out of range
  ::setenv("MIFO_TEST_U64", "-5", 1);
  EXPECT_EQ(env_u64("MIFO_TEST_U64", 9), 9u);
  ::unsetenv("MIFO_TEST_U64");
}

TEST(Env, ParseDoubleIsStrict) {
  EXPECT_EQ(parse_double("0.25").value_or(0.0), 0.25);
  EXPECT_EQ(parse_double("-1.5e3").value_or(0.0), -1500.0);
  EXPECT_FALSE(parse_double(nullptr));
  EXPECT_FALSE(parse_double(""));
  EXPECT_FALSE(parse_double("x"));
  EXPECT_FALSE(parse_double("1.5s"));
  EXPECT_FALSE(parse_double(" 1.5"));
  EXPECT_FALSE(parse_double("inf"));
  EXPECT_FALSE(parse_double("nan"));
  EXPECT_FALSE(parse_double("1e999"));  // overflows to inf
}

TEST(Env, StringParses) {
  ::setenv("MIFO_TEST_S", "hello", 1);
  EXPECT_EQ(env_string("MIFO_TEST_S", "x"), "hello");
  ::unsetenv("MIFO_TEST_S");
  EXPECT_EQ(env_string("MIFO_TEST_S", "fallback"), "fallback");
}

}  // namespace
}  // namespace mifo
