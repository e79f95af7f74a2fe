#include "common/stats.hpp"

#include <iterator>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace pmx {
namespace {

TEST(CounterSet, DefaultZeroAndIncrement) {
  CounterSet c;
  EXPECT_EQ(c.value("missing"), 0u);
  c.counter("sent") += 3;
  c.counter("sent") += 2;
  EXPECT_EQ(c.value("sent"), 5u);
  EXPECT_EQ(c.all().size(), 1u);
}

// Names past the 15-character small-string buffer, looked up through a
// string_view, a std::string and a literal alike; reading a missing name
// creates nothing, and all() stays in name order.
TEST(CounterSet, LongNamesAndMissingNamesThroughTransparentLookup) {
  CounterSet c;
  const std::string name = "circuits_established";  // 20 characters
  ASSERT_GT(name.size(), 15u);
  c.counter(name) += 1;
  c.counter(std::string_view(name)) += 1;
  c.counter("circuits_established") += 1;
  EXPECT_EQ(c.value(name), 3u);
  EXPECT_EQ(c.value(std::string_view("circuits_established")), 3u);

  EXPECT_EQ(c.value("circuits_established_but_longer"), 0u);
  EXPECT_EQ(c.value("circuits"), 0u);
  EXPECT_EQ(c.value(""), 0u);
  EXPECT_EQ(c.all().size(), 1u);

  c.counter("a_counter_that_sorts_first") += 0;  // a bump of 0 still names it
  ASSERT_EQ(c.all().size(), 2u);
  EXPECT_EQ(c.all().begin()->first, "a_counter_that_sorts_first");
  EXPECT_EQ(c.all().begin()->second, 0u);
  EXPECT_EQ(std::next(c.all().begin())->first, name);
}

}  // namespace
}  // namespace pmx
