#include "sim/event_queue.h"

#include <bit>
#include <utility>

namespace resccl {
namespace {

// The time's bit pattern, with -0.0 folded onto +0.0 so equal times share
// one bucket. Times are non-negative, never NaN (Schedule rejects times
// before now), so no key is FlatMap64's all-ones sentinel.
std::uint64_t TimeKey(SimTime when) {
  return std::bit_cast<std::uint64_t>(when.us() + 0.0);
}

}  // namespace

void EventQueue::Push(SimTime when, Slot slot, std::uint64_t generation,
                      Callback cb) {
  std::uint32_t entry;
  if (!free_entries_.empty()) {
    entry = free_entries_.back();
    free_entries_.pop_back();
  } else {
    RESCCL_CHECK_MSG(entries_.size() < kNil,
                     "event entry pool exhausts its uint32 index space");
    entry = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[entry];
  e.slot = slot;
  e.generation = generation;
  e.cb = std::move(cb);
  if (slot != kNoSlot) slots_[slot].entry = entry;
  Link(entry, BucketFor(when));
  if (resident_ > stats_.peak_heap) stats_.peak_heap = resident_;
}

std::uint32_t EventQueue::BucketFor(SimTime when) {
  const std::uint64_t key = TimeKey(when);
  if (key == last_key_) return last_bucket_;
  bool inserted = false;
  std::uint32_t& mapped = bucket_of_.FindOrInsert(key, inserted);
  if (inserted) {
    std::uint32_t b;
    if (!free_buckets_.empty()) {
      b = free_buckets_.back();
      free_buckets_.pop_back();
    } else {
      RESCCL_CHECK_MSG(buckets_.size() < kNil,
                       "event bucket pool exhausts its uint32 index space");
      b = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    }
    mapped = b;
    buckets_[b] = Bucket{when};
    heap_.push_back(b);
    SiftUp(heap_.size() - 1);
  }
  last_key_ = key;
  last_bucket_ = mapped;
  return mapped;
}

void EventQueue::Link(std::uint32_t entry, std::uint32_t bucket) {
  Bucket& bk = buckets_[bucket];
  Entry& e = entries_[entry];
  e.bucket = bucket;
  e.prev = bk.tail;
  e.next = kNil;
  if (bk.tail == kNil) {
    bk.head = entry;
  } else {
    entries_[bk.tail].next = entry;
  }
  bk.tail = entry;
  ++resident_;
}

void EventQueue::Unlink(std::uint32_t entry) {
  const Entry& e = entries_[entry];
  Bucket& bk = buckets_[e.bucket];
  if (e.prev == kNil) {
    bk.head = e.next;
  } else {
    entries_[e.prev].next = e.next;
  }
  if (e.next == kNil) {
    bk.tail = e.prev;
  } else {
    entries_[e.next].prev = e.prev;
  }
  --resident_;
  if (bk.head == kNil) ReleaseBucket(e.bucket);
}

void EventQueue::ReleaseBucket(std::uint32_t bucket) {
  const std::size_t i = buckets_[bucket].heap_pos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    Place(i, last);
    if (i > 0 && Earlier(last, heap_[(i - 1) / 2])) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }
  const std::uint64_t key = TimeKey(buckets_[bucket].when);
  bucket_of_.Erase(key);
  if (key == last_key_) last_key_ = FlatMap64::kEmptyKey;
  free_buckets_.push_back(bucket);
}

void EventQueue::SiftUp(std::size_t i) {
  const std::uint32_t b = heap_[i];
  while (i > 0) {
    const std::size_t p = (i - 1) / 2;
    if (!Earlier(b, heap_[p])) break;
    Place(i, heap_[p]);
    i = p;
  }
  Place(i, b);
}

void EventQueue::SiftDown(std::size_t i) {
  const std::uint32_t b = heap_[i];
  const std::size_t count = heap_.size();
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= count) break;
    if (c + 1 < count && Earlier(heap_[c + 1], heap_[c])) ++c;
    if (!Earlier(heap_[c], b)) break;
    Place(i, heap_[c]);
    i = c;
  }
  Place(i, b);
}

void EventQueue::Schedule(SimTime when, Callback cb) {
  RESCCL_CHECK_MSG(when >= now_, "event scheduled in the past");
  Push(when, kNoSlot, 0, std::move(cb));
  ++size_;
}

EventQueue::Slot EventQueue::NewSlot() {
  if (!free_slots_.empty()) {
    const Slot slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].parked = 0;
    return slot;
  }
  slots_.emplace_back();
  return slots_.size() - 1;
}

void EventQueue::ScheduleSlot(Slot slot, SimTime when, Callback cb) {
  RESCCL_CHECK(slot < slots_.size());
  SlotState& st = slots_[slot];
  RESCCL_CHECK_MSG(st.parked == 0, "slot used after FreeSlot");
  RESCCL_CHECK_MSG(when >= now_, "event scheduled in the past");
  const std::uint64_t gen = ++st.generation;
  if (st.pending != 0) {
    // Reschedule: the slot's live entry moves to the back of its new
    // time's bucket (a reschedule is a new insertion for FIFO ties). No
    // stale entry is left behind.
    const std::uint32_t entry = st.entry;
    Entry& e = entries_[entry];
    e.generation = gen;
    e.cb = std::move(cb);
    // Look the target up first: when it is the entry's own bucket, the
    // entry is either already last or has company, so the unlink below
    // never releases the bucket it is about to rejoin.
    const std::uint32_t target = BucketFor(when);
    if (e.bucket != target || e.next != kNil) {
      Unlink(entry);
      Link(entry, target);
    }
    return;
  }
  Push(when, slot, gen, std::move(cb));
  st.pending = 1;
  ++size_;
}

void EventQueue::CancelSlot(Slot slot) {
  RESCCL_CHECK(slot < slots_.size());
  SlotState& st = slots_[slot];
  RESCCL_CHECK_MSG(st.parked == 0, "slot used after FreeSlot");
  ++st.generation;
  if (st.pending != 0) {
    st.pending = 0;
    --size_;
  }
}

void EventQueue::FreeSlot(Slot slot) {
  RESCCL_CHECK(slot < slots_.size());
  RESCCL_CHECK_MSG(slots_[slot].parked == 0, "slot freed twice");
  CancelSlot(slot);  // the generation bump kills any queued entry
  slots_[slot].parked = 1;
  free_slots_.push_back(slot);
}

void EventQueue::DropStale() {
  while (!heap_.empty()) {
    const std::uint32_t te = Front().head;
    Entry& e = entries_[te];
    if (e.slot == kNoSlot || slots_[e.slot].generation == e.generation) return;
    Unlink(te);
    ++stats_.popped;
    ++stats_.skipped_stale;
    e.cb = nullptr;
    free_entries_.push_back(te);
  }
}

bool EventQueue::PrepareHead() {
  for (;;) {
    DropStale();
    // The clock is about to advance past now_ (or the queue has drained):
    // let the advance hook flush work deferred within this timestamp. It
    // may schedule new events — possibly earlier than the current head —
    // so re-examine the queue whenever it reports progress.
    if (advance_hook_ && (heap_.empty() || Front().when > now_)) {
      if (advance_hook_()) continue;
    }
    return !heap_.empty();
  }
}

void EventQueue::FireHead() {
  const SimTime when = Front().when;
  const std::uint32_t te = Front().head;
  Unlink(te);
  ++stats_.popped;
  Entry& e = entries_[te];
  if (e.slot != kNoSlot) slots_[e.slot].pending = 0;
  --size_;
  RESCCL_CHECK(when >= now_);
  now_ = when;
  // Copy the callback out and recycle the entry before firing: the
  // callback is free to schedule (and thereby claim the freed entry).
  Callback cb = std::move(e.cb);
  free_entries_.push_back(te);
  ++events_fired_;
  cb(now_);
}

bool EventQueue::RunOne() {
  if (!PrepareHead()) return false;
  FireHead();
  return true;
}

std::uint32_t EventQueue::RunBatch() {
  if (!PrepareHead()) return 0;
  const SimTime t = Front().when;
  std::uint32_t fired = 0;
  for (;;) {
    FireHead();
    ++fired;
    // Callbacks may have queued more work at this same timestamp (it fires
    // in this batch, in insertion order) or invalidated entries at it.
    DropStale();
    if (heap_.empty() || Front().when != t) return fired;
  }
}

void EventQueue::Reset() {
  entries_.clear();  // inline trivial callbacks: destruction frees nothing
  free_entries_.clear();
  buckets_.clear();
  free_buckets_.clear();
  heap_.clear();
  bucket_of_.Clear();
  last_key_ = FlatMap64::kEmptyKey;
  last_bucket_ = kNil;
  slots_.clear();
  free_slots_.clear();
  events_fired_ = 0;
  size_ = 0;
  resident_ = 0;
  now_ = SimTime::Zero();
  stats_ = {};
}

}  // namespace resccl
