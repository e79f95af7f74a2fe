#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/time.hpp"

namespace pmx {

/// Handle of a pushed event, usable with cancel(). Opaque and never 0, so 0
/// can mean "no event".
using EventId = std::uint64_t;

/// A scheduled callback held inline: a call pointer and a fixed buffer that
/// holds the callable itself. Only callables that are trivially copyable,
/// trivially destructible and fit the buffer convert, so building, copying
/// and dropping an EventFn never allocates, and a capture that does not fit
/// (or that owns memory, like a std::function) fails to compile.
class EventFn {
 public:
  /// The largest capture in src/: Network::notify_delivered's
  /// [this, msg, send_done, corrupt].
  static constexpr std::size_t kCapacity = 72;

  /// Implicit, so a call site passes its lambda straight to
  /// Simulator::schedule_at/schedule_after.
  template <typename F>
    requires(!std::is_same_v<F, EventFn> && std::is_invocable_v<F&> &&
             std::is_trivially_copyable_v<F> &&
             std::is_trivially_destructible_v<F> && sizeof(F) <= kCapacity &&
             alignof(F) <= alignof(std::uint64_t))
  EventFn(F fn) : call_(&call<F>) {
    std::construct_at(reinterpret_cast<F*>(storage_.data()), fn);
  }

  void operator()() { call_(storage_.data()); }

 private:
  template <typename F>
  static void call(std::byte* storage) {
    (*std::launder(reinterpret_cast<F*>(storage)))();
  }

  void (*call_)(std::byte*);
  alignas(std::uint64_t) std::array<std::byte, kCapacity> storage_;
};

/// Time-ordered event queue with stable FIFO ordering of simultaneous events
/// (ties broken by push order, so simulations are deterministic) and O(1)
/// cancellation.
///
/// Callbacks live in a slab of cells reused through a free list; the binary
/// heap orders 16-byte {time, id} keys only. An id is
/// `(push sequence << kCellBits) | cell`, so comparing ids of equal-time
/// keys compares push order, and a key is live exactly while its cell still
/// holds its id. cancel() frees the cell at once and leaves its key dead in
/// the heap; a dead key is dropped when it reaches the top, or by
/// compaction once dead keys outnumber half the heap (workloads that cancel
/// heavily, such as watchdogs re-armed on every grant, would otherwise let
/// them dominate every sift).
class EventQueue {
 public:
  EventQueue() {
    heap_.reserve(kInitialReserve);
    cells_.reserve(kInitialReserve);
    free_.reserve(kInitialReserve);
  }

  /// Enqueue `fn` to run at absolute time `t`. Returns a handle usable with
  /// cancel().
  EventId push(TimeNs t, EventFn fn);

  /// Cancel a pending event. Cancelling an already-fired, already-cancelled
  /// or never-issued id is a harmless no-op (the usual pattern is "cancel my
  /// timeout, it may have fired already").
  void cancel(EventId id);

  /// True when no live (non-cancelled) event remains.
  [[nodiscard]] bool empty();
  /// Time of the earliest pending live event. Precondition: !empty().
  [[nodiscard]] TimeNs next_time();

  struct Fired {
    TimeNs time;
    EventFn fn;
  };
  /// Pop and return the earliest live event. Precondition: !empty().
  Fired pop();
  /// Pop the earliest live event if it is due at or before `limit`; nullopt
  /// when the queue holds none.
  std::optional<Fired> pop_until(TimeNs limit);

  [[nodiscard]] std::size_t size_including_cancelled() const {
    return heap_.size();
  }
  /// Dead keys (cancelled events) not yet swept out of the heap.
  [[nodiscard]] std::size_t tombstones() const { return heap_.size() - live_; }

 private:
  /// Up-front capacity of the heap, the slab and the free list: push() is a
  /// `// pmx-hot` kernel, so steady-state operation must not reallocate.
  /// 1024 events (108 KiB) cover the event population of every bench
  /// point; larger campaigns grow once and then stay flat.
  static constexpr std::size_t kInitialReserve = 1024;
  static constexpr unsigned kCellBits = 24;
  static constexpr std::uint64_t kCellMask =
      (std::uint64_t{1} << kCellBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;

  struct Key {
    TimeNs time;
    EventId id;
  };
  // std::push_heap/pop_heap build a max-heap; invert so the earliest
  // (time, id) pair surfaces first.
  struct Later {
    bool operator()(const Key& lhs, const Key& rhs) const {
      if (lhs.time != rhs.time) {
        return lhs.time > rhs.time;
      }
      return lhs.id > rhs.id;
    }
  };
  struct Cell {
    EventId id;  ///< the occupant's id while it is pending, else 0
    EventFn fn;
  };

  [[nodiscard]] bool live(const Key& key) const {
    return cells_[key.id & kCellMask].id == key.id;
  }
  void drop_dead();
  Fired take_top();
  void compact();

  std::vector<Key> heap_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> free_;  ///< cells holding no pending event
  std::size_t live_ = 0;             ///< pending events (occupied cells)
  std::uint64_t next_seq_ = 1;       ///< never 0, so no id is 0
};

}  // namespace pmx
