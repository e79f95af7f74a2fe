// Heap allocations counted at run time. This file replaces the global
// operator new with a counting one, so it builds into an executable of its
// own (pmx_alloc_tests) where the counter sees no other test. It is the
// run-time half of pmx-analyze's hot-path-alloc rule, which reads source and
// cannot see an allocation behind an operator or `auto` (`auto d = a ^ b`).
// Sanitizer runtimes supply their own operator new, so sanitizer trees do not
// build it.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"
#include "sched/tdm_scheduler.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pmx {
namespace {

/// Allocations made by fn().
template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = g_allocations;
  fn();
  return g_allocations - before;
}

// A binary bitset operator copies its left operand once, into the result:
// one word buffer for a BitVector, and for a BitMatrix the row vector plus
// one word buffer per row.
TEST(AllocationCount, BitsetBinaryOperatorsCopyTheirResultOnce) {
  constexpr std::size_t kN = 128;
  BitVector a(kN);
  BitVector b(kN);
  a.set(3);
  b.set(70);
  std::size_t sink = 0;
  EXPECT_EQ(allocations_of([&] { sink += (a ^ b).count(); }), 1u);
  EXPECT_EQ(allocations_of([&] { sink += (a | b).count(); }), 1u);
  EXPECT_EQ(allocations_of([&] { sink += (a & b).count(); }), 1u);

  BitMatrix m(kN);
  BitMatrix h(kN);
  m.set(1, 2);
  h.set(100, 127);
  EXPECT_EQ(allocations_of([&] { sink += (m | h).count(); }), kN + 1);
  EXPECT_EQ(allocations_of([&] { sink += (m & h).count(); }), kN + 1);
  EXPECT_EQ(sink, 2u + 2u + 0u + 2u + 0u);
}

// The scheduler's steady state: every pass evaluated (a request toggles
// before each one, so the quiescence memo cannot elide it), with the
// multi-slot duplication pass, hold latches, a dead port and a stuck cell
// all in play, and the TDM counter advancing after every pass.
TEST(AllocationCount, SteadyStateSchedulerPassesAllocateNothing) {
  constexpr std::size_t kPorts = 130;
  constexpr std::size_t kSlots = 4;
  constexpr int kSteps = 2000;
  TdmScheduler::Options o;
  o.num_ports = kPorts;
  o.num_slots = kSlots;
  o.multi_slot_connections = true;
  o.skip_unrequested_slots = true;
  TdmScheduler sched(o);
  // A K=4 working set: every source requests its next four neighbours.
  for (std::size_t u = 0; u < kPorts; ++u) {
    for (std::size_t j = 1; j <= kSlots; ++j) {
      sched.set_request(u, (u + j) % kPorts, true);
    }
  }
  for (std::size_t u = 0; u < kPorts; u += 9) {
    sched.hold(u, (u + kSlots + 2) % kPorts);
  }
  (void)sched.set_port_fault(64, true);
  (void)sched.set_stuck_cell(10, 12);
  (void)sched.run_pass();  // warm-up
  (void)sched.advance_slot();

  const SchedulerStats before = sched.stats();
  std::size_t next = 0;
  std::size_t established = 0;
  std::size_t released = 0;
  const std::uint64_t allocations = allocations_of([&] {
    for (int i = 0; i < kSteps; ++i) {
      const std::size_t u = next++ % kPorts;
      const std::size_t v = (u + kSlots + 1) % kPorts;
      sched.set_request(u, v, !sched.request(u, v));
      if (i % 7 == 0) {
        const std::size_t w = (u + kSlots + 2) % kPorts;
        if (sched.held(u, w)) {
          sched.unhold(u, w);
        } else {
          sched.hold(u, w);
        }
      }
      const TdmScheduler::PassResult& pass = sched.run_pass();
      established += pass.established_pairs.size();
      released += pass.released_pairs.size();
      (void)sched.advance_slot();
    }
  });
  EXPECT_EQ(allocations, 0u) << "over " << kSteps
                             << " run_pass + advance_slot steps";
  // The steps did scheduling work: every pass was evaluated, and
  // connections entered and left the network.
  EXPECT_EQ(sched.stats().passes - before.passes,
            static_cast<std::uint64_t>(kSteps));
  EXPECT_GT(established, 0u);
  EXPECT_GT(released, 0u);
  EXPECT_GT(sched.stats().slot_advances - before.slot_advances, 0u);
}

}  // namespace
}  // namespace pmx
