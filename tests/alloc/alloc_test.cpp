// Heap allocations counted at run time. This file replaces the global
// operator new with a counting one, so it builds into an executable of its
// own (pmx_alloc_tests) where the counter sees no other test. It is the
// run-time half of pmx-analyze's hot-path-alloc rule, which reads source and
// cannot see an allocation behind an operator or `auto` (`auto d = a ^ b`).
// Sanitizer runtimes supply their own operator new, so sanitizer trees do not
// build it.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/bitmatrix.hpp"
#include "common/bitvector.hpp"
#include "common/message.hpp"
#include "common/rng.hpp"
#include "nic/voq.hpp"
#include "predictor/policy_engine.hpp"
#include "sched/tdm_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "switching/tdm.hpp"
#include "switching/wormhole.hpp"

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

// The policy engine on dynamic TDM's slot path: every slot collects
// evictions, then uses one pair per source, establishing and holding some
// and releasing others. Each source moves to its next pair every third
// slot, so pairs idle out past the 200 ns timeout and come back later:
// entries leave and re-enter the packed set all the time, at ports past 64
// and 128 too, and a flush every 500 slots empties it wholesale. Once the
// set, the pair index, the heap and the batch scratch have grown to the
// working set, a touch allocates nothing, and a collection allocates only
// the batch it returns by value.
TEST(PolicyEngineAlloc, SteadyStateTouchesDoNotAllocate) {
  constexpr std::size_t kPorts = 130;
  constexpr std::size_t kSlots = 4;
  constexpr std::int64_t kSlotNs = 100;
  constexpr int kWarmUp = 2000;
  constexpr int kSteps = 4000;
  const std::unique_ptr<Predictor> engine =
      make_policy(PolicySpec::parse("timeout:200"));

  std::uint64_t touch_allocations = 0;
  std::uint64_t batches = 0;         // non-empty ones
  std::uint64_t costly_batches = 0;  // allocated more than their copy
  std::uint64_t evictions = 0;
  std::vector<Conn> batch;
  const auto slot = [&](int t) {
    const TimeNs now{t * kSlotNs};
    const std::uint64_t allocated =
        allocations_of([&] { batch = engine->collect_evictions(now); });
    if (!batch.empty()) {
      ++batches;
      evictions += batch.size();
    }
    if (allocated > (batch.empty() ? 0u : 1u)) {
      ++costly_batches;
    }
    touch_allocations += allocations_of([&] {
      const auto phase = static_cast<std::size_t>(t / 3);
      for (std::size_t u = 0; u < kPorts; ++u) {
        const Conn c{u, (u + 1 + (phase + u) % kSlots) % kPorts};
        if (t % 3 == 0) {
          engine->on_establish(c, now);
        }
        engine->on_use(c, now);
        if (u % 5 == 0) {
          engine->on_hold(c, now);
        } else if (u % 7 == 0 && t % 3 == 2) {
          engine->on_release(c, now);
        }
      }
      if (t % 500 == 499) {
        engine->on_flush();
      }
    });
  };
  for (int t = 0; t < kWarmUp; ++t) {
    slot(t);
  }
  touch_allocations = 0;
  batches = 0;
  costly_batches = 0;
  evictions = 0;
  for (int t = kWarmUp; t < kWarmUp + kSteps; ++t) {
    slot(t);
  }
  EXPECT_EQ(touch_allocations, 0u)
      << "over " << kSteps << " slots of establish/use/hold/release";
  EXPECT_EQ(costly_batches, 0u)
      << "collect_evictions may allocate only the batch it returns";
  // The slots did eviction work.
  EXPECT_GT(batches, static_cast<std::uint64_t>(kSteps) / 4);
  EXPECT_GT(evictions, batches);
}

/// Network::notify_delivered's event, rebuilt: the callback captures
/// `this`, a Message, a TimeNs and a bool, 72 bytes.
class DeliverySink {
 public:
  explicit DeliverySink(Simulator& sim) : sim_(sim) {}

  EventId schedule(const Message& msg, TimeNs delay, bool corrupt) {
    const TimeNs send_done = sim_.now();
    const auto deliver = [this, msg, send_done, corrupt] {
      arrive(msg, send_done, corrupt);
    };
    static_assert(sizeof(deliver) == EventFn::kCapacity);
    return sim_.schedule_after(delay, deliver);
  }

  [[nodiscard]] std::uint64_t delivered_bytes() const {
    return delivered_bytes_;
  }

 private:
  void arrive(const Message& msg, TimeNs send_done, bool corrupt) {
    if (!corrupt && sim_.now() >= send_done) {
      delivered_bytes_ += msg.bytes;
    }
  }

  Simulator& sim_;
  std::uint64_t delivered_bytes_ = 0;
};

// The event core's steady state: every step pushes a 72-byte event and
// runs the clock forward, and every third step also pushes a timeout that
// it cancels while pending (the watchdog pattern), so dead keys pile up
// and compaction sweeps them. A std::function keeps at most 16 bytes
// inline, so with one as the callback every push here would allocate.
TEST(EventQueueAlloc, SteadyStateEventsDoNotAllocate) {
  // EventFn holds what it can keep inline without allocating, and nothing
  // else: a capture past its 72 bytes, or one that owns memory (a
  // std::function captured by value), does not convert.
  const std::array<char, EventFn::kCapacity> fits{};
  const auto at_capacity = [fits] { (void)fits; };
  static_assert(sizeof(at_capacity) == EventFn::kCapacity);
  static_assert(std::is_constructible_v<EventFn, decltype(at_capacity)>);
  const std::array<char, EventFn::kCapacity + 1> spills{};
  const auto oversized = [spills] { (void)spills; };
  static_assert(sizeof(oversized) == EventFn::kCapacity + 1);
  static_assert(!std::is_constructible_v<EventFn, decltype(oversized)>);
  const std::function<void()> inner = [] {};
  const auto owning = [inner] { inner(); };
  static_assert(!std::is_constructible_v<EventFn, decltype(owning)>);

  constexpr int kSteps = 100'000;
  Simulator sim;
  DeliverySink sink(sim);
  Message msg;
  msg.bytes = 256;
  const auto step = [&](int i) {
    msg.id = static_cast<MessageId>(i);
    msg.src = static_cast<NodeId>(i % 128);
    msg.dst = static_cast<NodeId>((i + 1) % 128);
    sink.schedule(msg, TimeNs{i % 97}, i % 11 == 0);
    if (i % 3 == 0) {
      sim.cancel(sink.schedule(msg, TimeNs{5000}, false));
    }
    sim.run_until(sim.now() + TimeNs{10});
  };
  for (int i = 0; i < kSteps; ++i) {
    step(i);  // warm-up: the slab, heap and free list reach their peak
  }
  const std::uint64_t bytes_before = sink.delivered_bytes();
  const std::uint64_t events_before = sim.events_processed();
  const std::uint64_t allocations = allocations_of([&] {
    for (int i = 0; i < kSteps; ++i) {
      step(i);
    }
  });
  EXPECT_EQ(allocations, 0u) << "over " << kSteps << " push/pop/cancel steps";
  // The steps ran events: one delivery per step, none of the timeouts.
  EXPECT_GT(sink.delivered_bytes() - bytes_before, 0u);
  EXPECT_GE(sim.events_processed() - events_before,
            static_cast<std::uint64_t>(kSteps) - 100);
}

// Building a VoqSet allocates its list heads and its pending() row, the
// same for any number of destinations. (One std::deque per destination
// made 2n + 2: a map and a node per deque, plus the two vectors.)
TEST(VoqSetAlloc, ConstructionAllocatesTheSameForAnySize) {
  const auto build = [](std::size_t n) {
    std::optional<VoqSet> voqs;
    const std::uint64_t allocations =
        allocations_of([&] { voqs.emplace(n); });
    EXPECT_EQ(voqs->num_dests(), n);
    return allocations;
  };
  EXPECT_EQ(build(8), build(1024));
  EXPECT_LE(build(128), 2u);
}

// Once the slab has grown to the peak number of queued messages, a push
// takes a freed entry and consume and evict only unlink entries: partial
// and full consumes, oldest and youngest evictions with finite cutoffs and
// a protected head, at up to 512 queued messages over 130 destinations.
TEST(VoqSetAlloc, SteadyStatePushConsumeEvictDoNotAllocate) {
  constexpr std::size_t kDests = 130;
  constexpr std::size_t kPeak = 512;
  constexpr int kSteps = 100'000;
  VoqSet voqs(kDests);
  Rng rng(7);
  MessageId next_id = 1;
  std::uint64_t completed = 0;
  std::uint64_t evicted = 0;
  const auto push = [&](std::int64_t t) {
    Message m;
    m.id = next_id++;
    m.dst = static_cast<NodeId>(rng.below(kDests));
    m.bytes = 1 + rng.below(512);
    m.submit_time = TimeNs{t};
    voqs.push(m);
  };
  const auto step = [&](int i) {
    const std::uint64_t r = rng.below(10);
    const std::size_t d = voqs.pending().find_next_wrap(rng.below(kDests));
    if ((r < 5 || d == kDests) && voqs.total_depth() < kPeak) {
      push(i);
    } else if (d == kDests) {
      return;
    } else if (r < 9) {
      Message done;
      voqs.consume(static_cast<NodeId>(d), 1 + rng.below(400), &done);
      completed += done.id != 0 ? 1u : 0u;
    } else {
      const std::optional<NodeId> protect =
          r % 2 == 0 ? std::optional<NodeId>(d) : std::nullopt;
      evicted += voqs.evict(i % 2 == 0, TimeNs{i - 200}, protect) ? 1u : 0u;
    }
  };
  for (std::size_t i = 0; i < kPeak; ++i) {
    push(0);  // the slab reaches its peak
  }
  for (int i = 0; i < kSteps; ++i) {
    step(i);
  }
  completed = 0;
  evicted = 0;
  const std::uint64_t allocations = allocations_of([&] {
    for (int i = kSteps; i < 2 * kSteps; ++i) {
      step(i);
    }
  });
  EXPECT_EQ(allocations, 0u)
      << "over " << kSteps << " push/consume/evict steps";
  // The steps moved messages through and out of the queues.
  EXPECT_GT(completed, static_cast<std::uint64_t>(kSteps) / 10);
  EXPECT_GT(evicted, static_cast<std::uint64_t>(kSteps) / 100);
}

// A paradigm's N VoqSets no longer cost allocations per queue: at N = 128,
// one std::deque per VOQ took 33,415 allocations to build a wormhole
// network and 34,993 to build a dynamic TDM one (now 391 and 1,969).
TEST(VoqSetAlloc, PaperScaleNetworksBuildWithoutPerQueueAllocations) {
  SystemParams params;
  params.num_nodes = 128;
  Simulator sim;
  std::optional<WormholeNetwork> wormhole;
  EXPECT_LT(allocations_of([&] { wormhole.emplace(sim, params); }), 1000u);
  std::optional<TdmNetwork> tdm;
  EXPECT_LT(allocations_of([&] { tdm.emplace(sim, params); }), 2500u);
}

}  // namespace
}  // namespace pmx
