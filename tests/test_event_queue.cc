// Unit tests for the discrete-event queue: ordering, FIFO ties, slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace resccl {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(SimTime::Us(30), [&](SimTime) { fired.push_back(3); });
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(1); });
  q.Schedule(SimTime::Us(20), [&](SimTime) { fired.push_back(2); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now().us(), 30.0);
}

TEST(EventQueueTest, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(SimTime::Us(7), [&fired, i](SimTime) { fired.push_back(i); });
  }
  while (q.RunOne()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbackMaySchedule) {
  EventQueue q;
  int count = 0;
  EventQueue::Callback chain = [&](SimTime now) {
    if (++count < 4) {
      q.Schedule(now + SimTime::Us(5), [&](SimTime t) {
        if (++count < 4) q.Schedule(t + SimTime::Us(5), [&](SimTime) { ++count; });
      });
    }
  };
  q.Schedule(SimTime::Us(1), chain);
  while (q.RunOne()) {
  }
  EXPECT_GE(count, 3);
  EXPECT_GT(q.now().us(), 10.0);
}

TEST(EventQueueTest, PastSchedulingRejected) {
  EventQueue q;
  q.Schedule(SimTime::Us(10), [](SimTime) {});
  ASSERT_TRUE(q.RunOne());
  EXPECT_THROW(q.Schedule(SimTime::Us(5), [](SimTime) {}), std::logic_error);
}

TEST(EventQueueTest, SlotRescheduleInvalidatesOldEntry) {
  EventQueue q;
  int fired_at = -1;
  const EventQueue::Slot slot = q.NewSlot();
  q.ScheduleSlot(slot, SimTime::Us(10), [&](SimTime) { fired_at = 10; });
  q.ScheduleSlot(slot, SimTime::Us(20), [&](SimTime) { fired_at = 20; });
  int events = 0;
  while (q.RunOne()) ++events;
  EXPECT_EQ(events, 1);  // the stale 10us entry is skipped silently
  EXPECT_EQ(fired_at, 20);
}

TEST(EventQueueTest, SlotCancel) {
  EventQueue q;
  bool fired = false;
  const EventQueue::Slot slot = q.NewSlot();
  q.ScheduleSlot(slot, SimTime::Us(10), [&](SimTime) { fired = true; });
  q.CancelSlot(slot);
  EXPECT_TRUE(q.empty());
  while (q.RunOne()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, EmptyTracksLiveEventsOnly) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  const EventQueue::Slot slot = q.NewSlot();
  q.ScheduleSlot(slot, SimTime::Us(5), [](SimTime) {});
  EXPECT_FALSE(q.empty());
  q.ScheduleSlot(slot, SimTime::Us(6), [](SimTime) {});  // replaces, not adds
  EXPECT_FALSE(q.empty());
  ASSERT_TRUE(q.RunOne());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueueTest, MixedSlotsAndOneShots) {
  EventQueue q;
  std::vector<int> fired;
  const EventQueue::Slot a = q.NewSlot();
  const EventQueue::Slot b = q.NewSlot();
  q.ScheduleSlot(a, SimTime::Us(3), [&](SimTime) { fired.push_back(1); });
  q.Schedule(SimTime::Us(2), [&](SimTime) { fired.push_back(0); });
  q.ScheduleSlot(b, SimTime::Us(4), [&](SimTime) { fired.push_back(2); });
  q.CancelSlot(b);
  q.ScheduleSlot(b, SimTime::Us(5), [&](SimTime) { fired.push_back(3); });
  while (q.RunOne()) {
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
}

// Property: under a random interleaving of slot allocation, scheduling,
// rescheduling, cancellation, freeing, recycling, and firing, exactly the
// callbacks the model says are live fire — a recycled slot's generation
// counter must make entries queued by a previous owner unfireable, and the
// free list must bound the slot table to the peak concurrent slot count.
TEST(EventQueueTest, RandomizedSlotRecyclingFiresExactlyLiveEntries) {
  std::mt19937 rng(0x5eed5107u);
  EventQueue q;
  std::vector<EventQueue::Slot> live;             // slots currently owned
  std::unordered_map<EventQueue::Slot, int> pending;  // slot -> live token
  std::vector<char> should_fire;                  // by token, model's verdict
  std::vector<char> fired;                        // by token, what happened
  std::size_t peak_live = 0;
  int next_token = 0;

  auto schedule = [&](EventQueue::Slot s) {
    const int token = next_token++;
    should_fire.push_back(1);
    fired.push_back(0);
    if (const auto it = pending.find(s); it != pending.end()) {
      should_fire[static_cast<std::size_t>(it->second)] = 0;  // superseded
    }
    pending[s] = token;
    const double delay = 1.0 + static_cast<double>(rng() % 50);
    q.ScheduleSlot(s, q.now() + SimTime::Us(delay), [&, s, token](SimTime) {
      // The fired entry must be the slot's currently-live one.
      const auto it = pending.find(s);
      ASSERT_TRUE(it != pending.end());
      EXPECT_EQ(it->second, token);
      pending.erase(it);
      fired[static_cast<std::size_t>(token)] = 1;
    });
  };
  auto drop_pending = [&](EventQueue::Slot s) {
    if (const auto it = pending.find(s); it != pending.end()) {
      should_fire[static_cast<std::size_t>(it->second)] = 0;
      pending.erase(it);
    }
  };

  for (int step = 0; step < 2000; ++step) {
    const auto op = rng() % 100;
    if (op < 30 || live.empty()) {
      const EventQueue::Slot s = q.NewSlot();
      live.push_back(s);
      peak_live = std::max(peak_live, live.size());
      schedule(s);
    } else if (op < 60) {
      schedule(live[rng() % live.size()]);
    } else if (op < 72) {
      const EventQueue::Slot s = live[rng() % live.size()];
      q.CancelSlot(s);
      drop_pending(s);
    } else if (op < 85) {
      const std::size_t i = rng() % live.size();
      const EventQueue::Slot s = live[i];
      drop_pending(s);
      q.FreeSlot(s);
      live[i] = live.back();
      live.pop_back();
    } else {
      for (auto n = rng() % 4; n > 0 && q.RunOne(); --n) {
      }
    }
  }
  while (q.RunOne()) {
  }

  for (int t = 0; t < next_token; ++t) {
    EXPECT_EQ(fired[static_cast<std::size_t>(t)],
              should_fire[static_cast<std::size_t>(t)])
        << "token " << t;
  }
  // Recycling must bound the table: slots are only minted when no freed
  // handle is available, so the table never exceeds the peak live count.
  EXPECT_LE(q.allocated_slots(), peak_live);
  EXPECT_GT(q.allocated_slots(), 0u);
}

TEST(EventQueueTest, RunBatchDrainsExactlyTheFrontTimestamp) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(0); });
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(1); });
  q.Schedule(SimTime::Us(20), [&](SimTime) { fired.push_back(2); });
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(3); });

  EXPECT_EQ(q.RunBatch(), 3u);  // all of t=10, insertion order, not t=20
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(q.now().us(), 10.0);

  EXPECT_EQ(q.RunBatch(), 1u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 3, 2}));
  EXPECT_EQ(q.RunBatch(), 0u);  // drained: no-op, clock stays put
  EXPECT_DOUBLE_EQ(q.now().us(), 20.0);
}

TEST(EventQueueTest, RunBatchIncludesEventsScheduledAtTheBatchTimestamp) {
  // A callback scheduling more work at the *same* timestamp extends the
  // current batch — the machine relies on this when a transfer completion
  // immediately releases dependents at the same instant.
  EventQueue q;
  int fired = 0;
  q.Schedule(SimTime::Us(5), [&](SimTime now) {
    ++fired;
    q.Schedule(now, [&](SimTime) { ++fired; });
  });
  EXPECT_EQ(q.RunBatch(), 2u);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, RunBatchMatchesRunOneEventOrder) {
  // The batched drain is a pure loop shape change: the fired sequence must
  // be identical to pumping RunOne.
  auto build = [](EventQueue& q, std::vector<int>& fired) {
    std::mt19937 rng(0xba7c4u);
    for (int i = 0; i < 200; ++i) {
      const double at = static_cast<double>(rng() % 17);
      q.Schedule(SimTime::Us(1) + SimTime::Us(at),
                 [&fired, i](SimTime) { fired.push_back(i); });
    }
  };
  EventQueue q1;
  std::vector<int> one;
  build(q1, one);
  while (q1.RunOne()) {
  }
  EventQueue qb;
  std::vector<int> batched;
  build(qb, batched);
  while (qb.RunBatch() > 0) {
  }
  EXPECT_EQ(one, batched);
}

TEST(EventQueueTest, StatsCountPopsStaleSkipsAndPeak) {
  EventQueue q;
  const EventQueue::Slot rescheduled = q.NewSlot();
  q.ScheduleSlot(rescheduled, SimTime::Us(10), [](SimTime) {});
  // A reschedule moves its entry to the new time: no stale entry is created.
  q.ScheduleSlot(rescheduled, SimTime::Us(20), [](SimTime) {});
  const EventQueue::Slot cancelled = q.NewSlot();
  q.ScheduleSlot(cancelled, SimTime::Us(15), [](SimTime) {});
  q.Schedule(SimTime::Us(30), [](SimTime) {});
  // Cancellation is lazy — the orphaned node stays resident until popped.
  q.CancelSlot(cancelled);
  // Peak counts resident heap entries — the cancelled orphan included.
  EXPECT_EQ(q.stats().peak_heap, 3u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(q.stats().popped, 3u);
  EXPECT_EQ(q.stats().skipped_stale, 1u);
  // popped - skipped_stale == events actually fired.
  EXPECT_EQ(q.stats().popped - q.stats().skipped_stale, q.events_fired());
}

TEST(EventQueueTest, ResetClearsStateKeepsCapacityAndHook) {
  EventQueue q;
  int hook_calls = 0;
  q.SetAdvanceHook([&hook_calls]() {
    ++hook_calls;
    return false;
  });
  for (int i = 0; i < 8; ++i) {
    q.Schedule(SimTime::Us(1 + i), [](SimTime) {});
  }
  const EventQueue::Slot s = q.NewSlot();
  q.ScheduleSlot(s, SimTime::Us(50), [](SimTime) {});
  while (q.RunOne()) {
  }
  ASSERT_GT(hook_calls, 0);
  ASSERT_GT(q.stats().popped, 0u);
  ASSERT_GT(q.now().us(), 0.0);

  q.Reset();
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now().us(), 0.0);
  EXPECT_EQ(q.stats().popped, 0u);
  EXPECT_EQ(q.stats().skipped_stale, 0u);
  EXPECT_EQ(q.stats().peak_heap, 0u);
  EXPECT_EQ(q.events_fired(), 0u);
  EXPECT_EQ(q.allocated_slots(), 0u);  // slot table restarts

  // The queue is fully usable again — scheduling in the "past" relative to
  // the pre-Reset clock is legal because the clock is back at zero — and
  // the advance hook survived the Reset.
  const int before = hook_calls;
  bool fired = false;
  q.Schedule(SimTime::Us(2), [&](SimTime) { fired = true; });
  while (q.RunOne()) {
  }
  EXPECT_TRUE(fired);
  EXPECT_GT(hook_calls, before);
}

TEST(EventQueueTest, RescheduleWithinSameTimestampMovesBehindQueuedEntries) {
  // A reschedule is a fresh insertion: rescheduling a slot to the time it
  // already holds moves it behind everything queued there since.
  EventQueue q;
  std::vector<int> fired;
  const EventQueue::Slot s = q.NewSlot();
  q.ScheduleSlot(s, SimTime::Us(10), [&](SimTime) { fired.push_back(0); });
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(1); });
  q.Schedule(SimTime::Us(10), [&](SimTime) { fired.push_back(2); });
  q.ScheduleSlot(s, SimTime::Us(10), [&](SimTime) { fired.push_back(3); });
  // Already last at its time: rescheduling it there again keeps it last.
  q.ScheduleSlot(s, SimTime::Us(10), [&](SimTime) { fired.push_back(4); });
  EXPECT_EQ(q.RunBatch(), 3u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 4}));
  EXPECT_EQ(q.stats().popped, 3u);
  EXPECT_EQ(q.stats().skipped_stale, 0u);
  EXPECT_EQ(q.stats().peak_heap, 3u);
}

TEST(EventQueueTest, RescheduleEmptyingFrontBucketMidBatchEndsTheBatch) {
  // The first event at t=5 reschedules the only other entry at t=5 to t=9,
  // emptying the front timestamp mid-batch: the batch ends there and the
  // moved entry fires after the t=7 event.
  EventQueue q;
  std::vector<int> fired;
  const EventQueue::Slot s = q.NewSlot();
  q.Schedule(SimTime::Us(5), [&](SimTime) {
    fired.push_back(0);
    q.ScheduleSlot(s, SimTime::Us(9), [&](SimTime) { fired.push_back(2); });
  });
  q.ScheduleSlot(s, SimTime::Us(5), [&](SimTime) { fired.push_back(-1); });
  q.Schedule(SimTime::Us(7), [&](SimTime) { fired.push_back(1); });

  EXPECT_EQ(q.RunBatch(), 1u);
  EXPECT_DOUBLE_EQ(q.now().us(), 5.0);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.RunBatch(), 1u);
  EXPECT_DOUBLE_EQ(q.now().us(), 7.0);
  EXPECT_EQ(q.RunBatch(), 1u);
  EXPECT_DOUBLE_EQ(q.now().us(), 9.0);
  EXPECT_EQ(q.RunBatch(), 0u);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.stats().popped, 3u);
  EXPECT_EQ(q.stats().skipped_stale, 0u);
}

// Reference model for the differential test: every resident entry in a flat
// vector, the next one found by a linear scan for the least (when,
// insertion counter). Slot reschedules re-stamp the live entry; cancels and
// frees leave it resident until it reaches the front, as the queue does, so
// the model predicts Stats exactly.
class ModelQueue {
 public:
  using Slot = EventQueue::Slot;

  void Schedule(SimTime when, EventQueue::Callback cb) {
    Insert(when, kNoSlot, 0, cb);
  }
  Slot NewSlot() {
    if (!free_.empty()) {
      const Slot s = free_.back();
      free_.pop_back();
      return s;
    }
    generation_.push_back(0);
    pending_.push_back(0);
    return generation_.size() - 1;
  }
  void ScheduleSlot(Slot s, SimTime when, EventQueue::Callback cb) {
    const std::uint64_t gen = ++generation_[s];
    if (pending_[s] != 0) {
      for (Rec& r : recs_) {
        if (r.slot == s && r.generation + 1 == gen) {
          r.when = when.us();
          r.order = next_order_++;
          r.generation = gen;
          r.cb = cb;
          return;
        }
      }
      ADD_FAILURE() << "pending slot without a live entry";
    }
    pending_[s] = 1;
    Insert(when, s, gen, cb);
  }
  void CancelSlot(Slot s) {
    ++generation_[s];
    pending_[s] = 0;
  }
  void FreeSlot(Slot s) {
    CancelSlot(s);
    free_.push_back(s);
  }
  bool RunOne() {
    if (!PrepareHead()) return false;
    FireHead();
    return true;
  }
  std::uint32_t RunBatch() {
    if (!PrepareHead()) return 0;
    const double t = recs_[Min()].when;
    std::uint32_t fired = 0;
    for (;;) {
      FireHead();
      ++fired;
      DropStale();
      if (recs_.empty() || recs_[Min()].when != t) return fired;
    }
  }
  void SetAdvanceHook(EventQueue::AdvanceHook hook) { hook_ = hook; }
  [[nodiscard]] SimTime now() const { return SimTime::Us(now_); }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }
  [[nodiscard]] const EventQueue::Stats& stats() const { return stats_; }

 private:
  static constexpr Slot kNoSlot = static_cast<Slot>(-1);
  struct Rec {
    double when;
    std::uint64_t order;
    Slot slot;
    std::uint64_t generation;
    EventQueue::Callback cb;
  };

  void Insert(SimTime when, Slot s, std::uint64_t gen,
              EventQueue::Callback cb) {
    recs_.push_back({when.us(), next_order_++, s, gen, cb});
    stats_.peak_heap = std::max<std::uint64_t>(stats_.peak_heap, recs_.size());
  }
  [[nodiscard]] std::size_t Min() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < recs_.size(); ++i) {
      const Rec& a = recs_[i];
      const Rec& b = recs_[best];
      if (a.when < b.when || (a.when == b.when && a.order < b.order)) best = i;
    }
    return best;
  }
  [[nodiscard]] bool Live(const Rec& r) const {
    return r.slot == kNoSlot || generation_[r.slot] == r.generation;
  }
  void DropStale() {
    while (!recs_.empty() && !Live(recs_[Min()])) {
      recs_.erase(recs_.begin() + static_cast<std::ptrdiff_t>(Min()));
      ++stats_.popped;
      ++stats_.skipped_stale;
    }
  }
  bool PrepareHead() {
    for (;;) {
      DropStale();
      if (hook_ && (recs_.empty() || recs_[Min()].when > now_)) {
        if (hook_()) continue;
      }
      return !recs_.empty();
    }
  }
  void FireHead() {
    const std::size_t i = Min();
    Rec r = recs_[i];
    recs_.erase(recs_.begin() + static_cast<std::ptrdiff_t>(i));
    ++stats_.popped;
    if (r.slot != kNoSlot) pending_[r.slot] = 0;
    now_ = r.when;
    ++fired_;
    r.cb(SimTime::Us(now_));
  }

  std::vector<Rec> recs_;
  std::vector<std::uint64_t> generation_;
  std::vector<char> pending_;
  std::vector<Slot> free_;
  EventQueue::AdvanceHook hook_;
  std::uint64_t next_order_ = 0;
  std::uint64_t fired_ = 0;
  double now_ = 0.0;
  EventQueue::Stats stats_;
};

// Everything observable about one randomized run.
struct DiffTrace {
  std::vector<std::pair<int, double>> fires;  // (token, time fired)
  std::vector<std::uint32_t> batches;         // RunBatch return values
  std::uint64_t events_fired = 0;
  EventQueue::Stats stats;
};

// Drives a queue (the real one or the model) through a seeded random mix of
// operations. All randomness comes from the driver's own generator, so two
// queues that behave identically see identical operation streams; the
// first divergence shows up in the trace.
template <typename Q>
class DiffDriver {
 public:
  explicit DiffDriver(std::uint32_t seed) : rng_(seed) {}

  DiffTrace Run() {
    q_.SetAdvanceHook([this]() { return OnAdvance(); });
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng_() % 100;
      if (op < 15 || live_.empty()) {
        const typename Q::Slot s = q_.NewSlot();
        live_.push_back(s);
        ScheduleSlot(s, Later());
      } else if (op < 30) {
        ScheduleOneShot(Later());
      } else if (op < 50) {
        Reschedule();
      } else if (op < 57) {
        q_.CancelSlot(Pick());
      } else if (op < 63) {
        const std::size_t i = rng_() % live_.size();
        q_.FreeSlot(live_[i]);
        live_[i] = live_.back();
        live_.pop_back();
      } else if (op < 82) {
        q_.RunOne();
      } else {
        trace_.batches.push_back(q_.RunBatch());
      }
    }
    for (;;) {
      if (rng_() % 2 == 0) {
        if (!q_.RunOne()) break;
      } else {
        const std::uint32_t n = q_.RunBatch();
        trace_.batches.push_back(n);
        if (n == 0) break;
      }
    }
    trace_.events_fired = q_.events_fired();
    trace_.stats = q_.stats();
    return trace_;
  }

 private:
  // Mostly a few distinct offsets from now, so ties are heavy; now and
  // then a far one, so the timestamp heap grows deep enough to reorder.
  SimTime Later() {
    static constexpr double kOffsets[] = {0.0, 0.0, 1.0, 1.0, 2.0, 3.0};
    const auto pick = rng_() % 8;
    const double offset =
        pick < 6 ? kOffsets[pick] : 4.0 + static_cast<double>(rng_() % 40);
    return q_.now() + SimTime::Us(offset);
  }
  typename Q::Slot Pick() { return live_[rng_() % live_.size()]; }
  EventQueue::Callback Fire() {
    const int token = next_token_++;
    return [this, token](SimTime now) { OnFire(token, now); };
  }
  void ScheduleOneShot(SimTime when) { q_.Schedule(when, Fire()); }
  void ScheduleSlot(typename Q::Slot s, SimTime when) {
    if (s >= slot_when_.size()) slot_when_.resize(s + 1);
    slot_when_[s] = when;
    q_.ScheduleSlot(s, when, Fire());
  }
  // A slot to the time it already holds, to a later time, or to now.
  void Reschedule() {
    const typename Q::Slot s = Pick();
    switch (rng_() % 3) {
      case 0: {
        const SimTime held = s < slot_when_.size() ? slot_when_[s] : q_.now();
        ScheduleSlot(s, std::max(held, q_.now()));
        break;
      }
      case 1:
        ScheduleSlot(s, Later() + SimTime::Us(1));
        break;
      default:
        ScheduleSlot(s, q_.now());
        break;
    }
  }
  void OnFire(int token, SimTime now) {
    trace_.fires.emplace_back(token, now.us());
    const auto op = rng_() % 10;
    if (op < 3) {
      ScheduleOneShot(now);
    } else if (op < 5 && !live_.empty()) {
      Reschedule();
    } else if (op < 6 && !live_.empty()) {
      q_.CancelSlot(Pick());
    } else if (op < 8) {
      ++deferred_;  // work for the advance hook to flush
    }
  }
  // Flushes deferred work by scheduling it at now, like the fluid model's
  // re-rate flush.
  bool OnAdvance() {
    if (deferred_ == 0) return false;
    --deferred_;
    ScheduleOneShot(q_.now());
    return true;
  }

  Q q_;
  std::mt19937 rng_;
  std::vector<typename Q::Slot> live_;
  std::vector<SimTime> slot_when_;
  DiffTrace trace_;
  int next_token_ = 0;
  int deferred_ = 0;
};

TEST(EventQueueTest, DifferentialAgainstReferenceModel) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const DiffTrace want = DiffDriver<ModelQueue>(seed).Run();
    const DiffTrace got = DiffDriver<EventQueue>(seed).Run();
    ASSERT_GT(want.fires.size(), 1000u);
    ASSERT_GT(want.stats.skipped_stale, 0u);
    EXPECT_EQ(got.fires, want.fires);
    EXPECT_EQ(got.batches, want.batches);
    EXPECT_EQ(got.events_fired, want.events_fired);
    EXPECT_EQ(got.stats.popped, want.stats.popped);
    EXPECT_EQ(got.stats.skipped_stale, want.stats.skipped_stale);
    EXPECT_EQ(got.stats.peak_heap, want.stats.peak_heap);
  }
}

}  // namespace
}  // namespace resccl
