// Discrete-event queue with cancellation.
//
// The simulated collectives are symmetric, so many thread blocks reach the
// same instant together: a few hundred entries are typically pending over
// fewer than ten distinct timestamps, and nearly every insertion lands on a
// timestamp that is already pending. The queue therefore orders
// *timestamps*, not events:
//
//  - Each distinct pending timestamp owns a bucket: a FIFO list of entries,
//    doubly linked through the recycled entry pool. Every push is the
//    newest insertion, so appending keeps a bucket in insertion order —
//    events at equal times fire FIFO with no sequence numbers.
//  - A small indexed min-heap orders the buckets by time; distinct buckets
//    have distinct times, so it needs no tie-break. A FlatMap64 from the
//    time's bit pattern to its bucket (plus a one-entry cache of the last
//    bucket hit) finds the bucket a push joins without touching the heap.
//  - The fluid link model reschedules a flow's completion every time the
//    set of flows sharing one of its resources changes. Rescheduling a slot
//    unlinks its live entry and appends it to the new time's bucket — a
//    fresh insertion for FIFO purposes — so reschedules leave nothing
//    stale. Cancellation stays lazy (a generation bump), since cancelled
//    slots are rare next to reschedules; their orphaned entries are
//    skipped when they reach the front.
//  - Callbacks are TrivialInplaceFunction, not std::function: the machine's
//    [this, transfer, bytes]-style captures exceed libstdc++'s 16-byte SBO
//    and would heap-allocate per Schedule; inline trivially-copyable
//    storage makes scheduling allocation-free AND recycles pool entries
//    without indirect manager calls.
//  - RunBatch() drains every event sharing the front timestamp in one call:
//    the advance hook (the fluid model's deferred re-rate flush, keyed on
//    distinct SimTime) is consulted once per distinct timestamp instead of
//    once per event.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/inplace_function.h"
#include "common/units.h"
#include "sim/flat_map.h"

namespace resccl {

class EventQueue {
 public:
  // Sized for the simulator's largest capture set plus headroom; anything
  // bigger — or any capture that isn't trivially copyable — fails to
  // compile rather than silently allocating.
  using Callback = TrivialInplaceFunction<void(SimTime now), 48>;

  // Queue-mechanics accounting over the queue's lifetime (reset by Reset):
  // queue pops split into fired callbacks and lazily-invalidated entries
  // dropped (orphans of CancelSlot/FreeSlot — reschedules move their entry
  // and leave none), plus the peak number of resident entries. Surfaced as
  // sim.events.{popped,skipped_stale,peak_heap} (docs/observability.md).
  struct Stats {
    std::uint64_t popped = 0;         // queue pops: fired + stale
    std::uint64_t skipped_stale = 0;  // entries dropped by lazy invalidation
    std::uint64_t peak_heap = 0;      // max entries resident at once
  };

  // Immediately schedules `cb` at `when` (must be >= now). Events at equal
  // times fire in insertion order, keeping the simulation deterministic.
  void Schedule(SimTime when, Callback cb);

  // Handle-based scheduling for cancellable events. `slot` identifies a
  // logical event source (e.g. a flow); rescheduling a slot supersedes any
  // previously scheduled entry for it (moved to the back of the new time's
  // bucket, exactly as if it were pushed afresh).
  //
  // Slots are recycled: NewSlot prefers handles released via FreeSlot over
  // growing the generation table, so long-running simulations that churn
  // through short-lived event sources (e.g. millions of fluid flows) keep a
  // bounded slot table. A slot's generation counter survives recycling —
  // it only ever increments — so entries queued by a previous owner can
  // never fire for the new one.
  using Slot = std::size_t;
  [[nodiscard]] Slot NewSlot();
  void ScheduleSlot(Slot slot, SimTime when, Callback cb);
  void CancelSlot(Slot slot);
  // Cancels any pending entry and returns the slot to the free list. The
  // handle must not be used again until NewSlot hands it back out
  // (checked), and must not be freed twice (checked).
  void FreeSlot(Slot slot);

  // Pops and fires the next event; returns false when the queue is empty.
  bool RunOne();

  // Advances the clock to the next event time and fires *every* event
  // scheduled there (including events its callbacks add at that same time),
  // in insertion order — identical semantics to calling RunOne in a loop,
  // but the advance hook runs once per distinct timestamp instead of being
  // re-checked per event. Returns the number of callbacks fired; 0 means
  // the queue has drained.
  std::uint32_t RunBatch();

  // Returns the queue to its just-constructed state — clock at zero, no
  // events, no slots, counters cleared — while keeping every buffer's
  // capacity (entry and bucket pools, heap, index, slot tables), so a
  // warmed queue re-runs a same-shaped program without allocating. The
  // advance hook survives.
  void Reset();

  // Installed by a component that defers work within a timestamp (the fluid
  // model coalesces re-rate walks this way). RunOne/RunBatch invoke the
  // hook whenever the clock is about to advance past `now()` — including
  // when the queue has drained — and the hook returns true if it did work
  // (it may have scheduled new events, possibly earlier than the current
  // head); the queue then re-examines its head. A hook with nothing pending
  // must return false or the pop would spin.
  using AdvanceHook = TrivialInplaceFunction<bool(), 16>;
  void SetAdvanceHook(AdvanceHook hook) { advance_hook_ = std::move(hook); }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] SimTime now() const { return now_; }
  // Size of the slot table ever allocated (recycled handles included);
  // exposed so tests can assert the free list bounds growth.
  [[nodiscard]] std::size_t allocated_slots() const { return slots_.size(); }
  // Callbacks actually fired over the queue's lifetime (stale slot entries
  // skipped by lazy invalidation are not counted). The perf harness
  // divides this by wall-clock for its events/sec throughput metric.
  [[nodiscard]] std::uint64_t events_fired() const { return events_fired_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Index sentinel for the entry and bucket pools (both checked to stay
  // below it) and for the ends of a bucket's list.
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr Slot kNoSlot = static_cast<Slot>(-1);

  // A pooled event; while resident it sits in `bucket`'s FIFO list.
  struct Entry {
    Slot slot = 0;                 // kNoSlot for one-shot events
    std::uint64_t generation = 0;  // must match slot generation to be live
    std::uint32_t bucket = kNil;   // bucket holding the entry while queued
    std::uint32_t prev = kNil;     // neighbours in the bucket's FIFO list
    std::uint32_t next = kNil;
    Callback cb;
  };
  // All resident entries at one distinct timestamp, oldest first.
  struct Bucket {
    SimTime when;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::uint32_t heap_pos = 0;  // index in heap_
  };

  void Push(SimTime when, Slot slot, std::uint64_t generation, Callback cb);
  // The bucket for `when`, created (and put on the heap) if none is pending.
  std::uint32_t BucketFor(SimTime when);
  // Appends `entry` to the back of `bucket`'s list.
  void Link(std::uint32_t entry, std::uint32_t bucket);
  // Removes `entry` from its bucket's list; an emptied bucket is released.
  void Unlink(std::uint32_t entry);
  void ReleaseBucket(std::uint32_t bucket);
  // The front bucket: the earliest pending timestamp.
  [[nodiscard]] const Bucket& Front() const { return buckets_[heap_[0]]; }
  // Indexed binary min-heap over bucket times; every bucket moved has its
  // heap_pos updated.
  [[nodiscard]] bool Earlier(std::uint32_t a, std::uint32_t b) const {
    return buckets_[a].when < buckets_[b].when;
  }
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void Place(std::size_t i, std::uint32_t bucket) {
    heap_[i] = bucket;
    buckets_[bucket].heap_pos = static_cast<std::uint32_t>(i);
  }
  // Drops stale entries off the front; counts them as popped + skipped.
  void DropStale();
  // Skip stale + run the advance hook until a live head exists (or the
  // queue is truly drained). Returns whether a live head exists.
  bool PrepareHead();
  // Fires the front bucket's oldest entry, which must be live; advances
  // the clock to its time.
  void FireHead();

  // All per-slot bookkeeping in one 16-byte record, so a reschedule's
  // generation bump + pending test + entry lookup hit a single cache line.
  struct SlotState {
    std::uint64_t generation = 0;
    std::uint32_t entry = 0;     // the live queued entry, valid when pending
    std::uint8_t pending = 0;    // slot has a live queued entry
    std::uint8_t parked = 0;     // slot is on the free list
  };

  std::vector<Entry> entries_;  // pool, index-stable
  std::vector<std::uint32_t> free_entries_;
  std::vector<Bucket> buckets_;  // pool, index-stable
  std::vector<std::uint32_t> free_buckets_;
  std::vector<std::uint32_t> heap_;  // pending buckets, earliest first
  FlatMap64 bucket_of_;  // time bit pattern -> bucket, pending ones only
  std::uint64_t last_key_ = FlatMap64::kEmptyKey;  // last bucket looked up
  std::uint32_t last_bucket_ = kNil;
  std::vector<SlotState> slots_;
  std::vector<Slot> free_slots_;
  AdvanceHook advance_hook_;
  std::uint64_t events_fired_ = 0;
  std::size_t size_ = 0;      // live events only
  std::size_t resident_ = 0;  // queued entries, stale ones included
  SimTime now_ = SimTime::Zero();
  Stats stats_;
};

}  // namespace resccl
