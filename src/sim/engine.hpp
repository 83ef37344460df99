// Deterministic discrete-event engine.
//
// Single-threaded: all model code runs inside event callbacks on one thread.
// Determinism guarantees:
//   * events fire in nondecreasing time order;
//   * events at equal times fire in scheduling (FIFO) order — except while
//     a reserved sequence block is active (see reserve_seqs), which exists
//     precisely to let the warm-start executor re-arm deferred events into
//     the tie-break positions an unforked run would have given them;
//   * cancellation is O(1) and never perturbs the order of other events.
//
// Storage design (the hot path of every benchmark): events live in a
// free-listed slot arena — a plain vector of {generation, callback} slots —
// and a 4-ary heap orders 16-byte {time, seq, slot} entries. cancel() is a
// generation bump on the slot (no hash lookup, no deallocation); the stale
// heap entry is dropped lazily when popped (its seq no longer matching the
// slot's), or in bulk by heap_compact() when corpses outnumber live
// events. Callbacks are EventFn values, move-constructed into recycled
// slots, so scheduling allocates nothing once the arena and heap have
// grown to the steady-state working set.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "sim/event_fn.hpp"

namespace realtor::sim {

class Engine {
 public:
  using Callback = EventFn;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now). Returns a handle usable
  /// with cancel() until the event fires.
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedules `cb` after `delay` seconds (>= 0).
  EventId schedule_in(SimTime delay, Callback cb);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);

  /// True if `id` is scheduled and not yet fired/cancelled.
  bool pending(EventId id) const;

  /// Runs until no events remain.
  void run();

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  void run_until(SimTime t);

  /// Runs all events with time strictly < `t`, then advances the clock to
  /// `t`. The warm-start snapshot barrier: events at exactly `t` stay
  /// pending, so divergent events re-armed at `t` from a reserved sequence
  /// block can still win the equal-time tie-break against them.
  void run_until_before(SimTime t);

  /// Burns `n` consecutive sequence numbers at the current allocation
  /// point and returns the first. Together with use_reserved_seqs() this
  /// lets a caller hold tie-break positions open for events it will only
  /// schedule later (the warm-start executor reserves the attack block in
  /// the shared prefix and arms each child's waves into it after fork);
  /// sequences never reused, so leftover reservations are simply wasted.
  std::uint32_t reserve_seqs(std::uint32_t n);

  /// Makes the next `n` schedule calls draw sequence numbers `first`,
  /// `first+1`, ... instead of fresh ones. The block must come from
  /// reserve_seqs(); nesting is not supported.
  void use_reserved_seqs(std::uint32_t first, std::uint32_t n);

  /// Ends reserved-sequence mode; asserts the block was fully consumed
  /// (an unconsumed reservation means the caller's event count drifted
  /// from what it actually scheduled).
  void end_reserved_seqs();

  /// Fires at most `max_events` events; returns how many fired.
  std::size_t step(std::size_t max_events = 1);

  /// Time of the next live event, or kNeverTime when none is pending.
  /// Drops cancelled entries sitting at the heap top on the way, so the
  /// answer never names a corpse (the agile reactor sleeps until it).
  SimTime next_event_time();

  std::size_t pending_count() const { return live_; }
  std::uint64_t events_processed() const { return processed_; }

  /// Sampled observation hook: after every `sample_every`-th processed
  /// event, `observer` is called with (now, events_processed,
  /// pending_count) — enough for a tracer to record engine progress
  /// without touching the hot loop otherwise. `sample_every` = 0 (the
  /// default) disables the hook; the loop then pays one integer test per
  /// event. The observer must not mutate the engine.
  using Observer =
      std::function<void(SimTime now, std::uint64_t processed,
                         std::size_t pending)>;
  void set_observer(std::uint64_t sample_every, Observer observer);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// One arena cell. `generation` starts at 1 and is bumped every time the
  /// slot is released (fire or cancel), so an EventId handle — which packs
  /// the generation it was issued under — can never act on a reused slot.
  /// (A stale handle could only collide after 2^32 reuses of one slot.)
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;
    /// Sequence number of the slot's current pending event, 0 when idle.
    /// Heap entries validate against this at pop time.
    std::uint32_t seq = 0;
  };

  /// Heap entries carry the firing time, a monotone sequence number for
  /// the FIFO tie-break among simultaneous events, and the owning slot.
  /// Liveness is validated by comparing `seq` against the slot's current
  /// sequence — sequences are unique engine-wide (schedule_at asserts
  /// before the 32-bit space could wrap), so a stale entry can never
  /// match. Keeping the entry at 16 bytes instead of 24 matters: draining
  /// a large queue is bound by sift-down cache traffic, which scales with
  /// entry size.
  struct HeapEntry {
    SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;
  };
  /// Min-heap order on (time, seq).
  static bool fires_before(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  /// The heap is 4-ary: half the depth of a binary heap, and the four
  /// children of a node sit in one cache line's worth of 24-byte entries,
  /// which is what the pop-side sift-down is bound by.
  void heap_push(const HeapEntry& entry);
  /// Restores heap order below `i` after heap_[i] was replaced.
  void sift_down(std::size_t i);
  /// Removes heap_.front(); the heap must be nonempty.
  void heap_pop_front();
  /// Rebuilds the heap without its dead entries. Called when cancelled
  /// garbage outnumbers live events, so lazy deletion costs amortized O(1)
  /// per cancel instead of a sift-down per corpse at pop time.
  void heap_compact();

  static EventId pack(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(slot) << 32) | generation;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  /// Returns the slot to the free list and invalidates outstanding
  /// handles/heap entries. The callback must already be moved out or dead.
  void release(std::uint32_t slot);

  /// Pops the next live event; returns false when the queue is exhausted.
  bool pop_next(SimTime& time, Callback& cb);

  /// Bumps the processed counter and fires the sampled observer.
  void note_processed();

  SimTime now_ = 0.0;
  std::uint32_t next_seq_ = 1;
  /// Reserved-sequence mode (see reserve_seqs): while reserved_left_ > 0,
  /// schedule_at draws from reserved_next_ instead of next_seq_.
  std::uint32_t reserved_next_ = 0;
  std::uint32_t reserved_left_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t observe_every_ = 0;
  Observer observer_;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  /// Heap entries whose event was cancelled (heap_.size() - dead_ live).
  std::size_t dead_ = 0;
};

}  // namespace realtor::sim
