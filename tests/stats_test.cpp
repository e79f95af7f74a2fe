#include "common/stats.hpp"

#include <cstdint>
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

// A slot names nothing until its first bump, like a plain name: all() lists
// exactly the names bumped, which the paradigm goldens print.
TEST(CounterSet, SlotNameIsAbsentUntilItsFirstBump) {
  CounterSet c;
  CounterSet::Slot worms("worms");
  c.counter("submitted") += 1;
  EXPECT_EQ(c.all().size(), 1u);
  EXPECT_EQ(c.all().count("worms"), 0u);
  c.counter(worms) += 0;
  ASSERT_EQ(c.all().size(), 2u);
  EXPECT_EQ(c.all().count("worms"), 1u);
  EXPECT_EQ(c.value("worms"), 0u);
}

// A slot bump and a string bump of one name add to one count, in either
// order, and nodes added after the slot bound do not move it.
TEST(CounterSet, SlotAndStringBumpsShareOneCount) {
  CounterSet c;
  CounterSet::Slot delivered("delivered");
  c.counter("delivered") += 3;
  c.counter(delivered) += 2;
  for (const std::string_view name :
       {"a", "b", "c", "circuits_established", "dispatch_misses", "z"}) {
    c.counter(name) += 1;
  }
  c.counter(delivered) += 1;
  c.counter("delivered") += 4;
  EXPECT_EQ(c.value("delivered"), 10u);
  EXPECT_EQ(c.counter(delivered), 10u);
  EXPECT_EQ(c.all().size(), 7u);
}

// Two slots for one name bind to the same node.
TEST(CounterSet, SecondSlotForANameBindsToTheSameNode) {
  CounterSet c;
  CounterSet::Slot first("circuit_waits");
  CounterSet::Slot second("circuit_waits");
  std::uint64_t& a = c.counter(first);
  std::uint64_t& b = c.counter(second);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(&a, &c.counter("circuit_waits"));
  c.counter(first) += 1;
  c.counter(second) += 1;
  EXPECT_EQ(c.value("circuit_waits"), 2u);
  EXPECT_EQ(c.all().size(), 1u);
}

}  // namespace
}  // namespace pmx
