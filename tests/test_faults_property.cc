// Property suite for deterministic fault injection: ~200 seeded FaultPlans
// swept across every algorithm × backend. Three invariants:
//   * faults change timing, never data — VerifyLoweredExecution still holds;
//   * a faulted run is never faster than the clean replay of the same plan;
//   * the same seed reproduces a bit-identical SimRunReport.
// The base seed is overridable via RESCCL_FAULT_SEED so CI can sweep
// distinct seed families without a rebuild.
#include <gtest/gtest.h>

#include <cstdlib>

#include "algorithms/catalog.h"
#include "algorithms/hierarchical.h"
#include "runtime/backend.h"
#include "sim/faults.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using algorithms::Catalog;
using algorithms::CatalogEntry;

std::uint64_t BaseSeed() {
  const char* env = std::getenv("RESCCL_FAULT_SEED");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

// Field-exact equality of two run reports; any divergence means the fault
// machinery consumed non-deterministic state (clock, query order, ...).
void ExpectIdenticalReports(const SimRunReport& a, const SimRunReport& b) {
  EXPECT_EQ(a.makespan.us(), b.makespan.us());
  ASSERT_EQ(a.tbs.size(), b.tbs.size());
  for (std::size_t i = 0; i < a.tbs.size(); ++i) {
    EXPECT_EQ(a.tbs[i].rank, b.tbs[i].rank);
    EXPECT_EQ(a.tbs[i].busy.us(), b.tbs[i].busy.us());
    EXPECT_EQ(a.tbs[i].sync.us(), b.tbs[i].sync.us());
    EXPECT_EQ(a.tbs[i].overhead.us(), b.tbs[i].overhead.us());
    EXPECT_EQ(a.tbs[i].fault_stall.us(), b.tbs[i].fault_stall.us());
    EXPECT_EQ(a.tbs[i].finish.us(), b.tbs[i].finish.us());
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].start.us(), b.transfers[i].start.us());
    EXPECT_EQ(a.transfers[i].complete.us(), b.transfers[i].complete.us());
  }
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (std::size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].tb, b.stalls[i].tb);
    EXPECT_EQ(a.stalls[i].start.us(), b.stalls[i].start.us());
    EXPECT_EQ(a.stalls[i].duration.us(), b.stalls[i].duration.us());
  }
}

class FaultProperty
    : public ::testing::TestWithParam<std::tuple<CatalogEntry, BackendKind>> {};

// Four seeded fault plans per (catalog algorithm, backend) on one prepared
// plan.
TEST_P(FaultProperty, FaultsPerturbTimingNeverData) {
  const auto& [entry, backend] = GetParam();
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = entry.make(topo);
  const PreparedPlan prepared = Prepare(algo, topo, backend).value();

  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  request.launch.chunk = Size::KiB(128);
  request.verify = true;
  request.verify_elems = 2;

  const std::uint64_t base = BaseSeed();
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t seed = base * 1000003 + static_cast<std::uint64_t>(i);
    const double intensity = 0.25 * (i + 1);
    request.faults = FaultPlan::Make(seed, intensity, topo);
    ASSERT_FALSE(request.faults.empty());

    const CollectiveReport r = Execute(*prepared, request);
    SCOPED_TRACE("seed=" + std::to_string(seed));

    // Timing, never data.
    EXPECT_TRUE(r.verified) << r.verify_error;

    // A faulted fabric cannot beat the clean replay of the same plan.
    ASSERT_TRUE(r.fault.faulted);
    EXPECT_GE(r.sim.makespan.us(), r.fault.clean_makespan.us() - 1e-9);
    EXPECT_GE(r.fault.slowdown_vs_clean, 1.0 - 1e-9);

    // Accounting: the new fault_stall bucket joins the per-TB breakdown
    // without breaking the lifetime bound, and the report-level total
    // matches the recorded stall slices.
    SimTime slice_total;
    for (const auto& s : r.sim.stalls) slice_total += s.duration;
    SimTime bucket_total;
    for (const TbStats& tb : r.sim.tbs) {
      bucket_total += tb.fault_stall;
      EXPECT_LE(tb.busy + tb.sync + tb.overhead + tb.fault_stall,
                tb.finish + SimTime::Us(0.01));
    }
    EXPECT_DOUBLE_EQ(slice_total.us(), bucket_total.us());
    EXPECT_DOUBLE_EQ(r.fault.total_stall.us(), bucket_total.us());

    EXPECT_EQ(r.fault.worst_rank == kInvalidRank, r.sim.tbs.empty());

    // Same seed, same plan: bit-identical report.
    if (i == 0) {
      const CollectiveReport again = Execute(*prepared, request);
      ExpectIdenticalReports(r.sim, again.sim);
      EXPECT_EQ(r.fault.slowdown_vs_clean, again.fault.slowdown_vs_clean);
    }
  }
}

std::string FaultPropertyName(
    const ::testing::TestParamInfo<std::tuple<CatalogEntry, BackendKind>>&
        info) {
  const auto& [a, b] = info.param;
  return std::string(a.name) + "_" + BackendName(b);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FaultProperty,
    ::testing::Combine(::testing::ValuesIn(Catalog()),
                       ::testing::Values(BackendKind::kResCCL,
                                         BackendKind::kMscclLike,
                                         BackendKind::kNcclLike)),
    FaultPropertyName);

TEST(FaultPlanTest, MakeIsDeterministic) {
  const Topology topo(presets::A100(2, 4));
  const FaultPlan a = FaultPlan::Make(42, 0.7, topo);
  const FaultPlan b = FaultPlan::Make(42, 0.7, topo);
  ASSERT_EQ(a.link_faults().size(), b.link_faults().size());
  for (std::size_t i = 0; i < a.link_faults().size(); ++i) {
    EXPECT_EQ(a.link_faults()[i].resource, b.link_faults()[i].resource);
    EXPECT_EQ(a.link_faults()[i].start.us(), b.link_faults()[i].start.us());
    EXPECT_EQ(a.link_faults()[i].end.us(), b.link_faults()[i].end.us());
    EXPECT_EQ(a.link_faults()[i].capacity_scale,
              b.link_faults()[i].capacity_scale);
  }
  for (int tb = 0; tb < 16; ++tb) {
    EXPECT_EQ(a.StallFor(tb, 10).before_instr, b.StallFor(tb, 10).before_instr);
    EXPECT_EQ(a.StallFor(tb, 10).duration.us(),
              b.StallFor(tb, 10).duration.us());
  }
  for (int t = 0; t < 64; ++t) {
    EXPECT_EQ(a.LatencyScale(t), b.LatencyScale(t));
  }
}

TEST(FaultPlanTest, DifferentSeedsDiffer) {
  const Topology topo(presets::A100(2, 4));
  const FaultPlan a = FaultPlan::Make(1, 0.7, topo);
  const FaultPlan b = FaultPlan::Make(2, 0.7, topo);
  bool any_difference = a.link_faults().size() != b.link_faults().size();
  for (std::size_t i = 0;
       !any_difference && i < a.link_faults().size(); ++i) {
    any_difference = a.link_faults()[i].capacity_scale !=
                         b.link_faults()[i].capacity_scale ||
                     a.link_faults()[i].resource != b.link_faults()[i].resource;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, ZeroIntensityIsEmptyAndClean) {
  const Topology topo(presets::A100(2, 4));
  EXPECT_TRUE(FaultPlan::Make(42, 0.0, topo).empty());

  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan prepared =
      Prepare(algo, topo, BackendKind::kResCCL).value();
  RunRequest clean;
  clean.launch.buffer = Size::MiB(4);
  RunRequest zero = clean;
  zero.faults = FaultPlan::Make(42, 0.0, topo);

  const CollectiveReport a = Execute(*prepared, clean);
  const CollectiveReport b = Execute(*prepared, zero);
  EXPECT_FALSE(a.fault.faulted);
  EXPECT_FALSE(b.fault.faulted);
  EXPECT_TRUE(b.sim.stalls.empty());
  ExpectIdenticalReports(a.sim, b.sim);
}

TEST(FaultPlanTest, CapacityScaleRespectsWindows) {
  const Topology topo(presets::A100(1, 2));
  FaultPlan plan;
  FaultPlan::LinkFault fault;
  fault.resource = ResourceId(0);
  fault.start = SimTime::Us(10);
  fault.end = SimTime::Us(20);
  fault.capacity_scale = 0.5;
  plan.AddLinkFault(fault);

  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(5)), 1.0);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(10)), 0.5);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(19)), 0.5);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(0), SimTime::Us(20)), 1.0);
  EXPECT_EQ(plan.CapacityScaleAt(ResourceId(1), SimTime::Us(15)), 1.0);

  // Transition points are strictly ahead of `now`.
  EXPECT_EQ(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(5)).us(), 10.0);
  EXPECT_EQ(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(10)).us(),
            20.0);
  EXPECT_TRUE(plan.NextTransitionAfter(ResourceId(0), SimTime::Us(20))
                  .is_infinite());
}

}  // namespace
}  // namespace resccl
