#include "common/stats.hpp"

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

}  // namespace
}  // namespace pmx
