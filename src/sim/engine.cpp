#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/profile.hpp"

namespace realtor::sim {

Engine::Engine() {
  // Typical steady-state working sets (one completion timer per host plus
  // in-flight protocol traffic) sit well under this; reserving avoids the
  // first few reallocation steps on every simulation construction.
  heap_.reserve(64);
  slots_.reserve(64);
}

void Engine::heap_push(const HeapEntry& entry) {
  std::size_t i = heap_.size();
  heap_.push_back(entry);  // placeholder; the hole sifts up below
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!fires_before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::sift_down(std::size_t i) {
  const HeapEntry value = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < end; ++c) {
      if (fires_before(heap_[c], heap_[best])) best = c;
    }
    if (!fires_before(heap_[best], value)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = value;
}

void Engine::heap_pop_front() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Engine::heap_compact() {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (slots_[entry.slot].seq == entry.seq) {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  dead_ = 0;
  if (kept > 1) {
    // Floyd construction over the 4-ary layout: sift every parent down,
    // deepest first.
    for (std::size_t i = (kept - 2) / 4 + 1; i-- > 0;) {
      sift_down(i);
    }
  }
}

EventId Engine::schedule_at(SimTime t, Callback cb) {
  REALTOR_ASSERT_MSG(t >= now_, "cannot schedule in the past");
  REALTOR_ASSERT(static_cast<bool>(cb));
  std::uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(cb);
  std::uint32_t seq;
  if (reserved_left_ > 0) {
    seq = reserved_next_++;
    --reserved_left_;
  } else {
    seq = next_seq_++;
    REALTOR_ASSERT_MSG(next_seq_ != 0, "event sequence space exhausted");
  }
  s.seq = seq;
  heap_push(HeapEntry{t, seq, slot});
  ++live_;
  return pack(slot, s.generation);
}

std::uint32_t Engine::reserve_seqs(std::uint32_t n) {
  const std::uint32_t first = next_seq_;
  REALTOR_ASSERT_MSG(0xffffffffu - next_seq_ > n,
                     "event sequence space exhausted");
  next_seq_ += n;
  return first;
}

void Engine::use_reserved_seqs(std::uint32_t first, std::uint32_t n) {
  REALTOR_ASSERT_MSG(reserved_left_ == 0, "reserved blocks cannot nest");
  REALTOR_ASSERT_MSG(first + n <= next_seq_, "block was never reserved");
  reserved_next_ = first;
  reserved_left_ = n;
}

void Engine::end_reserved_seqs() {
  REALTOR_ASSERT_MSG(reserved_left_ == 0,
                     "reserved sequence block not fully consumed");
  reserved_next_ = 0;
}

EventId Engine::schedule_in(SimTime delay, Callback cb) {
  REALTOR_ASSERT_MSG(delay >= 0.0, "negative delay");
  return schedule_at(now_ + delay, std::move(cb));
}

void Engine::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.generation;
  s.seq = 0;  // sequences start at 1, so any heap entry is now stale
  s.next_free = free_head_;
  free_head_ = slot;
  --live_;
}

void Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  if (slots_[slot].generation != generation_of(id)) return;  // fired/dead
  release(slot);
  ++dead_;  // the event's heap entry is now garbage
  // Compact once corpses outnumber live entries, so cancel-heavy phases
  // (Algorithm H re-arming its HELP timers) don't grow the heap unboundedly
  // or tax every subsequent push/pop with dead weight.
  if (dead_ > 64 && dead_ * 2 > heap_.size()) heap_compact();
}

void Engine::set_observer(std::uint64_t sample_every, Observer observer) {
  observe_every_ = sample_every;
  observer_ = std::move(observer);
}

void Engine::note_processed() {
  ++processed_;
  if (observe_every_ != 0 && processed_ % observe_every_ == 0 && observer_) {
    observer_(now_, processed_, live_);
  }
}

bool Engine::pending(EventId id) const {
  const std::uint32_t slot = slot_of(id);
  return slot < slots_.size() &&
         slots_[slot].generation == generation_of(id);
}

bool Engine::pop_next(SimTime& time, Callback& cb) {
  if (live_ == 0) {  // only corpses (if anything) remain — drop them all
    heap_.clear();
    dead_ = 0;
    return false;
  }
  for (;;) {
    const HeapEntry top = heap_.front();
    heap_pop_front();
    Slot& s = slots_[top.slot];
    if (s.seq != top.seq) {  // cancelled
      --dead_;
      continue;
    }
    cb = std::move(s.fn);
    release(top.slot);
    time = top.time;
    return true;
  }
}

SimTime Engine::next_event_time() {
  while (live_ > 0) {
    const HeapEntry& top = heap_.front();
    if (slots_[top.slot].seq == top.seq) return top.time;
    heap_pop_front();  // cancelled
    --dead_;
  }
  return kNeverTime;
}

void Engine::run() {
  SimTime time = 0.0;
  Callback cb;
  while (pop_next(time, cb)) {
    now_ = time;
    note_processed();
    obs::ProfileScope scope("engine/dispatch");
    cb();
  }
}

void Engine::run_until(SimTime t) {
  REALTOR_ASSERT(t >= now_);
  while (live_ > 0) {
    // Peek for a live event not later than t.
    const HeapEntry top = heap_.front();
    if (slots_[top.slot].seq != top.seq) {  // cancelled
      heap_pop_front();
      --dead_;
      continue;
    }
    if (top.time > t) break;
    heap_pop_front();
    Slot& s = slots_[top.slot];
    Callback cb = std::move(s.fn);
    release(top.slot);
    now_ = top.time;
    note_processed();
    obs::ProfileScope scope("engine/dispatch");
    cb();
  }
  now_ = t;
}

void Engine::run_until_before(SimTime t) {
  REALTOR_ASSERT(t >= now_);
  while (live_ > 0) {
    const HeapEntry top = heap_.front();
    if (slots_[top.slot].seq != top.seq) {  // cancelled
      heap_pop_front();
      --dead_;
      continue;
    }
    if (top.time >= t) break;
    heap_pop_front();
    Slot& s = slots_[top.slot];
    Callback cb = std::move(s.fn);
    release(top.slot);
    now_ = top.time;
    note_processed();
    obs::ProfileScope scope("engine/dispatch");
    cb();
  }
  now_ = t;
}

std::size_t Engine::step(std::size_t max_events) {
  std::size_t fired = 0;
  SimTime time = 0.0;
  Callback cb;
  while (fired < max_events && pop_next(time, cb)) {
    now_ = time;
    note_processed();
    ++fired;
    obs::ProfileScope scope("engine/dispatch");
    cb();
  }
  return fired;
}

}  // namespace realtor::sim
