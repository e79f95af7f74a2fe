#include "common/config.hpp"

#include <gtest/gtest.h>

namespace pmx {
namespace {

TEST(Config, FromArgsParsesPairs) {
  const Config c = Config::from_args({"nodes=128", "mux=4", "name=fig4"});
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.get_uint("nodes", 0), 128u);
  EXPECT_EQ(c.get_int("mux", 0), 4);
  EXPECT_EQ(c.get_string("name", ""), "fig4");
}

TEST(Config, FromArgsRejectsMalformedTokens) {
  EXPECT_THROW((void)Config::from_args({"nodes"}), std::runtime_error);
  EXPECT_THROW((void)Config::from_args({"=5"}), std::runtime_error);
}

TEST(Config, FallbacksUsedWhenKeyAbsent) {
  const Config c;
  EXPECT_EQ(c.get_int("missing", -7), -7);
  EXPECT_EQ(c.get_uint("missing", 9), 9u);
  EXPECT_EQ(c.get_string("missing", "x"), "x");
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_DOUBLE_EQ(c.get_double("missing", 2.5), 2.5);
}

TEST(Config, TypedGettersValidate) {
  const Config c = Config::from_args({"n=12x", "u=-3", "d=1.2.3", "b=maybe"});
  EXPECT_THROW((void)c.get_int("n", 0), std::runtime_error);
  EXPECT_THROW((void)c.get_uint("u", 0), std::runtime_error);
  EXPECT_THROW((void)c.get_double("d", 0.0), std::runtime_error);
  EXPECT_THROW((void)c.get_bool("b", false), std::runtime_error);
}

TEST(Config, BoolAcceptsCommonSpellings) {
  const Config c =
      Config::from_args({"a=true", "b=false", "c=1", "d=0", "e=yes", "f=no"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
  EXPECT_TRUE(c.get_bool("c", false));
  EXPECT_FALSE(c.get_bool("d", true));
  EXPECT_TRUE(c.get_bool("e", false));
  EXPECT_FALSE(c.get_bool("f", true));
}

TEST(Config, NegativeIntParses) {
  const Config c = Config::from_args({"x=-42"});
  EXPECT_EQ(c.get_int("x", 0), -42);
}

TEST(Config, UnreadKeysCatchTypos) {
  const Config c = Config::from_args({"nodes=8", "tpyo=1"});
  (void)c.get_uint("nodes", 0);
  EXPECT_EQ(c.unread_keys(), (std::vector<std::string>{"tpyo"}));
}

TEST(Config, LastValueWins) {
  Config c;
  c.set("k", "1");
  c.set("k", "2");
  EXPECT_EQ(c.get_int("k", 0), 2);
}

}  // namespace
}  // namespace pmx
