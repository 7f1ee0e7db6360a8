#include "sim/fluid.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "sim/faults.h"

namespace resccl {

void FluidNetwork::FlowSoA::PushDefault() {
  span.emplace_back();
  remaining.push_back(0.0);
  rate.push_back(0.0);
  cap.push_back(0.0);
  last_update.emplace_back();
  slot.push_back(0);
  reseq.push_back(0);
  visit_stamp.push_back(0);
  active.push_back(0);
  on_complete.emplace_back();
}

void FluidNetwork::FlowSoA::Clear() {
  span.clear();
  remaining.clear();
  rate.clear();
  cap.clear();
  last_update.clear();
  slot.clear();
  reseq.clear();
  visit_stamp.clear();
  active.clear();
  on_complete.clear();
}

FluidNetwork::FluidNetwork(const Topology& topo, const CostModel& cost,
                           EventQueue& queue, const FaultPlan* faults,
                           bool naive_rerate)
    : topo_(topo),
      cost_(cost),
      queue_(queue),
      faults_(faults),
      naive_rerate_(naive_rerate) {
  const std::size_t n = topo_.resources().size();
  resource_active_.assign(n, 0);
  if (naive_rerate_) {
    resource_flows_.assign(n, {});
  } else {
    resource_buckets_.resize(n);
  }
  usage_.assign(n, {});
  resource_busy_since_.assign(n, SimTime::Zero());
  share_cache_z_.assign(n, -1);
  share_cache_val_.assign(n, 0.0);
  mark_stamp_.assign(n, 0);
  mark_index_.assign(n, 0);
  // Deferred re-rates flush just before the clock advances (the naive
  // reference walk runs inline and never defers, so its hook is a no-op).
  queue_.SetAdvanceHook([this] { return FlushDeferred(); });
}

FluidNetwork::~FluidNetwork() { queue_.SetAdvanceHook(nullptr); }

void FluidNetwork::Reset(const FaultPlan* faults) {
  faults_ = faults;
  if (active_count_ != 0) {
    // Dirty teardown (the previous run deadlocked mid-flight): the bucket
    // tables and naive membership lists still hold members, so rebuild
    // them the slow way. The clean-completion path below leaves them
    // naturally empty with every slot parked on its free list.
    for (ResourceBuckets& rb : resource_buckets_) {
      rb.buckets.clear();
      rb.free.clear();
      rb.by_key.Clear();
    }
    for (std::vector<FlowIndex>& list : resource_flows_) list.clear();
  }
  flows_.Clear();
  arena_.Reset();
  free_flows_.clear();
  std::fill(resource_active_.begin(), resource_active_.end(), 0);
  std::fill(usage_.begin(), usage_.end(), ResourceUsage{});
  std::fill(resource_busy_since_.begin(), resource_busy_since_.end(),
            SimTime::Zero());
  pending_marks_.clear();
  pending_forced_.clear();
  ++mark_epoch_;  // invalidates every mark_stamp_ entry wholesale
  recompute_seq_ = 0;
  batch_start_seq_ = 0;
  walk_depth_ = 0;
  in_flush_ = false;
  active_count_ = 0;
  rate_log_enabled_ = false;
  rate_log_.clear();
  stats_ = {};
}

FlowId FluidNetwork::StartFlow(const Path& path, std::int64_t bytes,
                               Bandwidth cap, CompletionFn on_complete) {
  RESCCL_CHECK_MSG(bytes > 0, "flow must carry at least one byte");
  const SimTime now = queue_.now();

  FlowIndex index;
  if (!free_flows_.empty()) {
    index = free_flows_.back();
    free_flows_.pop_back();
    ++stats_.flows_recycled;
  } else {
    flows_.PushDefault();
    index = static_cast<FlowIndex>(flows_.size() - 1);
  }
  flows_.span[index] =
      arena_.Allocate({path.resources.data(), path.resources.size()});
  flows_.remaining[index] = static_cast<double>(bytes);
  flows_.rate[index] = 0.0;
  flows_.cap[index] = cap.bytes_per_us();
  flows_.last_update[index] = now;
  flows_.slot[index] = queue_.NewSlot();
  flows_.on_complete[index] = std::move(on_complete);
  flows_.active[index] = 1;
  ++stats_.flows_started;

  const std::span<const ResourceId> res = PathOf(index);
  UpdateResourceCounts(res, +1, now);
  for (ResourceId r : res) {
    if (naive_rerate_) {
      resource_flows_[static_cast<std::size_t>(r.value)].push_back(index);
    }
    usage_[static_cast<std::size_t>(r.value)].bytes += bytes;
  }
  if (!naive_rerate_) InsertIntoBuckets(index);
  ++active_count_;
  const FlowId id(static_cast<std::int32_t>(index));
  if (naive_rerate_) {
    // Seed behavior: walk every resource inline; the new flow is rated per
    // incidence and its peers slow down immediately. The walk copies the
    // list before re-rating anything, so passing a view into the
    // (recyclable) arena span is safe.
    RecomputeAffected(res, now);
  } else {
    // Deferred: the new flow carries no rate until the flush just before
    // the clock advances — exact, because no simulated time passes in
    // between. UpdateResourceCounts above already marked its resources
    // dirty; force-list it too, since a never-rated flow has no rate for
    // the flush's binding test to classify.
    if (pending_marks_.empty() && pending_forced_.empty()) {
      batch_start_seq_ = recompute_seq_;
    }
    pending_forced_.push_back(index);
  }
  return id;
}

double FluidNetwork::ResourceShare(ResourceId r, int z, SimTime now) const {
  // Fair share of one resource among z flows, degraded by the resource's
  // own contention penalty and any fault window active at `now`. Shared by
  // CurrentRate and the affected walk's binding test so both see the exact
  // same floating-point value for the same (resource, count, time).
  //
  // The two divides below are the hot path's only expensive arithmetic,
  // and within one re-rate walk every flow sharing a resource asks for the
  // same (r, z) — so the fault-free mode memoizes the last share per
  // resource. Reusing the stored double is bit-exact by construction; with
  // faults the share also depends on `now`, so that mode recomputes.
  const auto ri = static_cast<std::size_t>(r.value);
  if (faults_ == nullptr && share_cache_z_[ri] == z) {
    return share_cache_val_[ri];
  }
  const Resource& res = topo_.resource(r);
  const double eff =
      1.0 / (1.0 + res.contention_gamma * static_cast<double>(z - 1));
  double capacity = res.capacity.bytes_per_us();
  if (faults_ != nullptr) capacity *= faults_->CapacityScaleAt(r, now);
  const double share = capacity / static_cast<double>(z) * eff;
  if (faults_ == nullptr) {
    share_cache_z_[ri] = z;
    share_cache_val_[ri] = share;
  }
  return share;
}

double FluidNetwork::CurrentRate(FlowIndex index, SimTime now) const {
  // The flow runs at the tightest per-resource constraint along its path,
  // bounded by the driving TB's injection capability. The walk reads one
  // contiguous arena span plus the dense count array.
  double rate = flows_.cap[index];
  for (ResourceId r : PathOf(index)) {
    const int z = resource_active_[static_cast<std::size_t>(r.value)];
    rate = std::min(rate, ResourceShare(r, z, now));
  }
  return rate;
}

SimTime FluidNetwork::NextFaultTransition(FlowIndex index, SimTime now) const {
  SimTime next = SimTime::Infinity();
  if (faults_ == nullptr) return next;
  for (ResourceId r : PathOf(index)) {
    next = std::min(next, faults_->NextTransitionAfter(r, now));
  }
  return next;
}

void FluidNetwork::UpdateResourceCounts(std::span<const ResourceId> resources,
                                        int delta, SimTime now) {
  for (ResourceId r : resources) {
    const auto ri = static_cast<std::size_t>(r.value);
    const int before = resource_active_[ri];
    resource_active_[ri] += delta;
    RESCCL_CHECK(resource_active_[ri] >= 0);
    if (!naive_rerate_) MarkResource(ri, before, resource_active_[ri]);
    if (before == 0 && delta > 0) {
      resource_busy_since_[ri] = now;
    } else if (resource_active_[ri] == 0 && delta < 0) {
      usage_[ri].active += now - resource_busy_since_[ri];
    }
  }
}

void FluidNetwork::MarkResource(std::size_t ri, int z_before, int z_after) {
  if (pending_marks_.empty() && pending_forced_.empty()) {
    batch_start_seq_ = recompute_seq_;
  }
  if (mark_stamp_[ri] == mark_epoch_) {
    // Already dirty this batch: widen the count range. z_before equals the
    // previous change's z_after, so only the new endpoint can extend it.
    Mark& m = pending_marks_[mark_index_[ri]];
    m.z_lo = std::min(m.z_lo, z_after);
    m.z_hi = std::max(m.z_hi, z_after);
  } else {
    mark_stamp_[ri] = mark_epoch_;
    mark_index_[ri] = pending_marks_.size();
    pending_marks_.push_back(
        {ri, z_before, std::min(z_before, z_after), std::max(z_before, z_after)});
  }
}

void FluidNetwork::RecomputeAffected(std::span<const ResourceId> resources,
                                     SimTime now) {
  // Naive reference walk (the seed behavior): one full recompute per
  // (resource, flow) incidence — a flow sharing k resources with the
  // trigger is re-integrated k times, and every start/complete pays its own
  // walk even when several land on the same timestamp. Kept as the
  // perf-harness baseline; the deferred flush matches its timing to
  // relative fp tolerance (see fluid.h). Scratch is per recursion depth
  // (completion callbacks can start flows, nesting walks) and held in a
  // deque so growing it never invalidates an outer walk's reference.
  RESCCL_CHECK(naive_rerate_);
  if (walk_scratch_.size() <= walk_depth_) walk_scratch_.emplace_back();
  WalkScratch& scratch = walk_scratch_[walk_depth_];
  ++walk_depth_;
  // Copy before any re-rate: a nested completion can recycle the arena
  // span (or grow the pool) that `resources` views into.
  scratch.resources.assign(resources.begin(), resources.end());
  for (ResourceId r : scratch.resources) {
    const auto ri = static_cast<std::size_t>(r.value);
    scratch.affected = resource_flows_[ri];  // copy: re-rates mutate it
    stats_.walk_visits += scratch.affected.size();
    for (FlowIndex fi : scratch.affected) {
      if (flows_.active[fi] != 0) RecomputeFlow(fi, now, /*allow_skip=*/false);
    }
  }
  --walk_depth_;
}

std::uint64_t FluidNetwork::BucketKey(double rate, bool capped) {
  // Rates are non-negative finite, so the sign bit is free to carry the
  // cap-bound flag; the remaining bits are the exact rate pattern — two
  // flows share a bucket iff the binding test cannot distinguish them.
  std::uint64_t key = std::bit_cast<std::uint64_t>(rate);
  if (capped) key |= std::uint64_t{1} << 63;
  return key;
}

void FluidNetwork::InsertIntoBuckets(FlowIndex index) {
  const double rate = flows_.rate[index];
  const bool capped = rate == flows_.cap[index];
  const std::uint64_t key = BucketKey(rate, capped);
  const PathSpanArena::Span sp = flows_.span[index];
  const std::span<const ResourceId> res = arena_.resources(sp);
  const std::span<BucketRef> refs = arena_.bucket_refs(sp);
  const std::uint64_t reseq = flows_.reseq[index];
  for (std::size_t k = 0; k < res.size(); ++k) {
    ResourceBuckets& rb =
        resource_buckets_[static_cast<std::size_t>(res[k].value)];
    bool inserted = false;
    std::uint32_t& slot = rb.by_key.FindOrInsert(key, inserted);
    if (inserted) {
      if (!rb.free.empty()) {
        slot = rb.free.back();
        rb.free.pop_back();
      } else {
        slot = static_cast<std::uint32_t>(rb.buckets.size());
        rb.buckets.emplace_back();
      }
      Bucket& fresh = rb.buckets[slot];
      fresh.rate = rate;
      fresh.capped = capped;
      fresh.max_reseq = 0;
      fresh.flows.clear();
    }
    Bucket& b = rb.buckets[slot];
    b.max_reseq = std::max(b.max_reseq, reseq);
    refs[k] = {slot, static_cast<std::uint32_t>(b.flows.size())};
    b.flows.push_back(index);
  }
}

void FluidNetwork::RemoveFromBuckets(FlowIndex index) {
  const PathSpanArena::Span sp = flows_.span[index];
  const std::span<const ResourceId> res = arena_.resources(sp);
  const std::span<const BucketRef> refs =
      std::as_const(arena_).bucket_refs(sp);
  for (std::size_t k = 0; k < res.size(); ++k) {
    const auto ri = static_cast<std::size_t>(res[k].value);
    ResourceBuckets& rb = resource_buckets_[ri];
    Bucket& b = rb.buckets[refs[k].bucket];
    const std::uint32_t pos = refs[k].pos;
    const FlowIndex moved = b.flows.back();
    b.flows[pos] = moved;
    b.flows.pop_back();
    if (moved != index) {
      // Patch the displaced flow's position for this resource (a path
      // visits a resource at most once, so the match is unique).
      const PathSpanArena::Span msp = flows_.span[moved];
      const std::span<const ResourceId> mres = arena_.resources(msp);
      const std::span<BucketRef> mrefs = arena_.bucket_refs(msp);
      for (std::size_t k2 = 0; k2 < mres.size(); ++k2) {
        if (mres[k2] == res[k]) {
          mrefs[k2].pos = pos;
          break;
        }
      }
    }
    if (b.flows.empty()) {
      rb.by_key.Erase(BucketKey(b.rate, b.capped));
      rb.free.push_back(refs[k].bucket);
    }
  }
}

void FluidNetwork::BumpBucketReseq(FlowIndex index) {
  const PathSpanArena::Span sp = flows_.span[index];
  const std::span<const ResourceId> res = arena_.resources(sp);
  const std::span<const BucketRef> refs =
      std::as_const(arena_).bucket_refs(sp);
  const std::uint64_t reseq = flows_.reseq[index];
  for (std::size_t k = 0; k < res.size(); ++k) {
    Bucket& b = resource_buckets_[static_cast<std::size_t>(res[k].value)]
                    .buckets[refs[k].bucket];
    b.max_reseq = std::max(b.max_reseq, reseq);
  }
}

bool FluidNetwork::FlushDeferred() {
  // Re-rates everything marked dirty since the last flush, all at the
  // current timestamp. Runs at most once per distinct simulated time (the
  // queue's advance hook), so any number of same-time starts and
  // completions — a chunk finishing and the next chunk starting, a barrier
  // releasing a whole phase — cost one walk instead of one walk each.
  //
  // Within the flush, two filters bound the work:
  //
  //  1. Epoch dedup — each flow is re-rated at most once per round. A stale
  //     stamp can never equal a fresh epoch (the counter only grows), so
  //     recycled entries need no clearing pass.
  //
  //  2. O(1) binding test per (resource, bucket) incidence. Only dirty
  //     resources changed count, so flow f's rate can have moved only if
  //     for some dirty resource r on its path:
  //       - r's final share dropped below f's current rate (the min
  //         tightened), or
  //       - r could have been binding for f when f was last rated, and r's
  //         share has moved since (the min may relax). For a flow rated
  //         before this batch, "binding" is exact: rate == share(z_first).
  //         For a flow rated mid-batch (its wake event fired on this
  //         timestamp), r's count at that moment is somewhere in
  //         [z_lo, z_hi], so the test widens to rate ∈ [s(z_hi), s(z_lo)].
  //         A flow at its injection cap is exempt: rates never rise past
  //         the cap, whatever the shares do.
  //     The test reads nothing but the flow's rate and cap-bound status —
  //     exactly the resource's bucket key — so it runs once per bucket and
  //     its verdict covers every member. The one widening: a bucket's
  //     max_reseq stands in for each member's reseq, so a bucket holding
  //     any mid-batch-rated flow takes the range test for all members; the
  //     range test is a superset of the exact test (z_first ∈ [z_lo, z_hi]
  //     and the share is decreasing in z), so this only ever re-rates more,
  //     never misses one.
  //     Rates rise only when every binding resource loosens, and a binding
  //     resource loosens only by changing count, which marks it — so a flow
  //     failing the test for all dirty resources on its path keeps its rate
  //     bit-exactly and is never touched: its integration is deferred to
  //     its next re-rate, which is exact because the rate is constant over
  //     the deferred span.
  //
  // Re-rates can complete flows, whose callbacks start new flows — still at
  // this timestamp, marking fresh work; the outer loop drains until clean.
  if (in_flush_ || (pending_marks_.empty() && pending_forced_.empty())) {
    return false;
  }
  in_flush_ = true;
  const SimTime now = queue_.now();
  while (!pending_marks_.empty() || !pending_forced_.empty()) {
    const std::uint64_t batch_seq = batch_start_seq_;
    flush_marks_.swap(pending_marks_);
    flush_forced_.swap(pending_forced_);
    ++mark_epoch_;  // invalidates mark_stamp_ for the next pending batch
    const std::uint64_t epoch = ++visit_epoch_;
    flush_affected_.clear();
    for (FlowIndex fi : flush_forced_) {
      // A forced entry can already be inactive (started and drained by a
      // same-time wake) or recycled (its index re-handed to a newer flow,
      // which is itself forced) — the stamp and the active check below
      // make both harmless.
      if (flows_.visit_stamp[fi] == epoch) continue;
      flows_.visit_stamp[fi] = epoch;
      flush_affected_.push_back(fi);
    }
    for (const Mark& m : flush_marks_) {
      const int z_new = resource_active_[m.ri];
      if (z_new == 0) continue;  // every flow here completed this batch
      const ResourceId r(static_cast<std::int32_t>(m.ri));
      const double s_new = ResourceShare(r, z_new, now);
      const double s_first =
          ResourceShare(r, m.z_first > 0 ? m.z_first : 1, now);
      const double s_hi = ResourceShare(r, m.z_hi, now);  // smallest share
      const double s_lo =
          ResourceShare(r, m.z_lo > 0 ? m.z_lo : 1, now);  // largest share
      for (const Bucket& b : resource_buckets_[m.ri].buckets) {
        ++stats_.walk_visits;
        if (b.flows.empty()) continue;  // free-listed slot
        bool maybe_changed;
        if (s_new < b.rate) {
          maybe_changed = true;  // the min tightened below the stored rate
        } else if (b.capped) {
          maybe_changed = false;  // cap-bound: cannot rise
        } else if (b.max_reseq > batch_seq) {
          maybe_changed = s_hi <= b.rate && b.rate <= s_lo;
        } else {
          maybe_changed = b.rate == s_first && s_new != s_first;
        }
        if (!maybe_changed) {
          stats_.binding_skips += b.flows.size();
          continue;
        }
        for (FlowIndex fi : b.flows) {
          if (flows_.visit_stamp[fi] == epoch) continue;
          flows_.visit_stamp[fi] = epoch;
          flush_affected_.push_back(fi);
        }
      }
    }
    for (FlowIndex fi : flush_affected_) {
      if (flows_.active[fi] != 0) RecomputeFlow(fi, now, /*allow_skip=*/true);
    }
    flush_marks_.clear();
    flush_forced_.clear();
  }
  in_flush_ = false;
  return true;
}

void FluidNetwork::RecomputeFlow(FlowIndex index, SimTime now,
                                 bool allow_skip) {
  ++stats_.recompute_calls;
  RESCCL_CHECK(flows_.active[index] != 0);
  // Integrate progress at the old rate.
  const double elapsed_us = (now - flows_.last_update[index]).us();
  flows_.remaining[index] -= flows_.rate[index] * elapsed_us;
  flows_.last_update[index] = now;
  // Sub-millibyte residue is floating-point noise from the rate
  // integrations, not payload; treat it as drained.
  if (flows_.remaining[index] <= 1e-3) {
    Complete(index, now);
    return;
  }
  const double rate = CurrentRate(index, now);
  RESCCL_CHECK_MSG(rate > 0.0, "flow starved: zero rate");
  // The stored rate is now verified (or about to be made) current with
  // respect to this timestamp's final counts; stamp the sequence so the
  // flush's binding test classifies this flow correctly next batch.
  flows_.reseq[index] = ++recompute_seq_;
  if (allow_skip && rate == flows_.rate[index]) {
    // The bottleneck on f's path didn't actually move (e.g. a tied second
    // bottleneck still binds), so the queued completion/wake event is
    // still exact — keep it. Skipping is only legal from the flush: a
    // slot-fired wake passes allow_skip=false because its event has
    // already been consumed and the flow must either complete or requeue.
    // The flow keeps its buckets, but their max_reseq must track the fresh
    // reseq or the next flush would misclassify it as pre-batch-rated.
    if (!naive_rerate_) BumpBucketReseq(index);
    ++stats_.rate_unchanged_skips;
    return;
  }
  if (rate_log_enabled_) LogRateChange(index, now, rate - flows_.rate[index]);
  if (!naive_rerate_) {
    // Refile under the new rate's bucket; an unchanged-rate wake (slot
    // events reaching here with allow_skip=false) keeps its buckets and
    // just propagates the fresh reseq.
    if (rate != flows_.rate[index]) {
      RemoveFromBuckets(index);
      flows_.rate[index] = rate;
      InsertIntoBuckets(index);
    } else {
      BumpBucketReseq(index);
    }
  }
  flows_.rate[index] = rate;
  const SimTime done = now + SimTime::Us(flows_.remaining[index] / rate);
  // If the residue would drain in less than one representable time
  // increment, the completion event would fire at `now` again with zero
  // elapsed time and the flow would never progress — finish it here.
  if (done <= now) {
    Complete(index, now);
    return;
  }
  // A fault window opening or closing on the path before `done` changes the
  // rate mid-flight: wake up at the boundary and re-rate instead.
  const SimTime transition = NextFaultTransition(index, now);
  const SimTime wake = std::min(done, transition);
  ++stats_.reschedules;
  queue_.ScheduleSlot(flows_.slot[index], wake, [this, index](SimTime t) {
    RecomputeFlow(index, t, /*allow_skip=*/false);
  });
}

void FluidNetwork::Complete(FlowIndex index, SimTime now) {
  RESCCL_CHECK(flows_.active[index] != 0);
  // Close out the rate log before zeroing: every flow's deltas telescope
  // back to zero here, so per-resource aggregates return to the pre-flow
  // level exactly.
  if (rate_log_enabled_) LogRateChange(index, now, -flows_.rate[index]);
  flows_.active[index] = 0;
  flows_.remaining[index] = 0.0;
  flows_.rate[index] = 0.0;
  queue_.FreeSlot(flows_.slot[index]);
  const PathSpanArena::Span sp = flows_.span[index];
  UpdateResourceCounts(arena_.resources(sp), -1, now);
  if (naive_rerate_) {
    for (ResourceId r : arena_.resources(sp)) {
      auto& list = resource_flows_[static_cast<std::size_t>(r.value)];
      const auto it = std::find(list.begin(), list.end(), index);
      RESCCL_CHECK(it != list.end());
      *it = list.back();  // swap-remove: order within a list is irrelevant
      list.pop_back();
    }
  } else {
    RemoveFromBuckets(index);
  }
  --active_count_;
  CompletionFn cb = std::move(flows_.on_complete[index]);
  // The entry is recyclable from here on — a StartFlow nested in the walk
  // below (via a peer's completion callback) may hand it out again — so
  // don't touch the flow's lanes past this point.
  free_flows_.push_back(index);
  if (naive_rerate_) {
    // Peers sharing resources speed up now that this flow is gone; the
    // naive reference walks inline. It copies the list before re-rating
    // anything, so the view into the not-yet-released span is safe; the
    // span itself is only released afterwards, so no nested StartFlow can
    // alias it mid-walk.
    RecomputeAffected(arena_.resources(sp), now);
  }
  // In the incremental mode UpdateResourceCounts above already marked the
  // path dirty and the flush before the next clock advance re-rates peers.
  arena_.Release(sp);
  // Fire completion last: the callback may start new flows.
  if (cb) cb(now);
}

void FluidNetwork::LogRateChange(FlowIndex index, SimTime now, double delta) {
  if (delta == 0.0) return;
  for (ResourceId r : PathOf(index)) {
    rate_log_.push_back({now, r, delta});
  }
}

double FluidNetwork::FlowRate(FlowId id) const {
  // A diagnostic read inside the current timestamp must observe the rates
  // the deferred marks imply, so flush first (logically const: it only
  // advances state the next event would force anyway).
  const_cast<FluidNetwork*>(this)->FlushDeferred();
  const auto i = static_cast<std::size_t>(id.value);
  RESCCL_CHECK(i < flows_.size());
  return flows_.active[i] != 0 ? flows_.rate[i] : 0.0;
}

void FluidNetwork::DebugValidate() const {
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    if (flows_.active[i] == 0) continue;
    ++live;
    const PathSpanArena::Span sp = flows_.span[i];
    RESCCL_CHECK_MSG(arena_.SpanInBounds(sp), "active flow span out of pool");
    const std::span<const ResourceId> res = arena_.resources(sp);
    RESCCL_CHECK(!res.empty());
    if (naive_rerate_) {
      for (ResourceId r : res) {
        const auto& list = resource_flows_[static_cast<std::size_t>(r.value)];
        RESCCL_CHECK(std::find(list.begin(), list.end(),
                               static_cast<FlowIndex>(i)) != list.end());
      }
      continue;
    }
    const std::span<const BucketRef> refs = arena_.bucket_refs(sp);
    for (std::size_t k = 0; k < res.size(); ++k) {
      const ResourceBuckets& rb =
          resource_buckets_[static_cast<std::size_t>(res[k].value)];
      RESCCL_CHECK(refs[k].bucket < rb.buckets.size());
      const Bucket& b = rb.buckets[refs[k].bucket];
      RESCCL_CHECK_MSG(refs[k].pos < b.flows.size() &&
                           b.flows[refs[k].pos] == static_cast<FlowIndex>(i),
                       "bucket ref does not point back at its flow");
      RESCCL_CHECK_MSG(b.rate == flows_.rate[i],
                       "flow filed under a bucket with a foreign rate");
    }
  }
  RESCCL_CHECK_MSG(static_cast<int>(live) == active_count_,
                   "active flow count out of sync");
  RESCCL_CHECK_MSG(arena_.live_spans() == live,
                   "arena live-span count out of sync with active flows");
}

}  // namespace resccl
