// Tests for the benchmark's own code: the percentile rule, the best-of-N
// timing, span self-time arithmetic, the per-case bandwidth mean, and the
// determinism of the train_replay digest and simulated bandwidth.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(Percentile(OneTo(100), 0.5), 50);
  EXPECT_EQ(Percentile(OneTo(100), 0.99), 99);
  EXPECT_EQ(Percentile(OneTo(101), 0.5), 51);
  EXPECT_EQ(Percentile({3, 1, 2}, 1.0), 3);
  EXPECT_EQ(Median({}), 0);
}

TEST(TailPercentile, P99OnlyWithTenSamplesBeyond) {
  // 1000 samples: rank 990, ten samples above it.
  const Tail t = TailPercentile(OneTo(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.n, 1000u);
}

TEST(TailPercentile, FallsBackToRankNMinusTen) {
  // 999 samples: p99 would leave only nine above, so rank 989 is used.
  const Tail t = TailPercentile(OneTo(999));
  EXPECT_LT(t.q, 0.99);
  EXPECT_EQ(t.value, 989);
  const Tail small = TailPercentile(OneTo(40));
  EXPECT_DOUBLE_EQ(small.q, 0.75);
  EXPECT_EQ(small.value, 30);
  // Exactly ten samples above the reported one.
  const std::vector<double> v = OneTo(40);
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > small.value; }),
            10);
}

TEST(TailPercentile, MedianBelowTwentySamples) {
  const Tail t = TailPercentile(OneTo(15));
  EXPECT_DOUBLE_EQ(t.q, 0.5);
  EXPECT_EQ(t.value, 8);
}

TEST(BestWindowTail, LowestWindowTail) {
  // Three windows of 1000; a burst inflates the second one.
  std::vector<std::vector<double>> w = {OneTo(1000), OneTo(1000),
                                        OneTo(1000)};
  for (double& x : w[1]) x += 5000;
  for (double& x : w[2]) x += 1;
  const Tail t = BestWindowTail(w);
  EXPECT_EQ(t.value, 990);  // lowest of {990, 5990, 991}
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.n, 1000u);
  EXPECT_EQ(t.windows, 3u);
}

TEST(BestWindowTail, EmptyWindowsAreSkipped) {
  const Tail t = BestWindowTail({{}, OneTo(40), {}});
  EXPECT_EQ(t.windows, 1u);
  EXPECT_EQ(t.value, 30);
  EXPECT_EQ(BestWindowTail({}).n, 0u);
  EXPECT_EQ(BestWindowTail({}).windows, 0u);
}

TEST(BestWindowMedian, LowestWindowMedian) {
  std::vector<std::vector<double>> w = {OneTo(9), OneTo(9), OneTo(9)};
  for (double& x : w[0]) x *= 10;  // a burst window
  for (double& x : w[2]) x += 1;
  EXPECT_EQ(BestWindowMedian(w), 5);
  EXPECT_EQ(BestWindowMedian({{}, OneTo(3)}), 2);
  EXPECT_EQ(BestWindowMedian({}), 0);
}

TEST(BestOf, KeepsEachCallsFastestRepetition) {
  BestOf b(3);
  b.Add(0, 5);
  b.Add(0, 3);
  b.Add(0, 4);
  b.Add(2, 7);
  b.Add(2, 9);
  // Call 1 was never timed and is left out.
  EXPECT_EQ(b.best(), (std::vector<double>{3, 7}));
  EXPECT_EQ(b.min_reps(), 2u);
  EXPECT_TRUE(BestOf(2).best().empty());
  EXPECT_EQ(BestOf(2).min_reps(), 0u);
}

Span MakeSpan(const char* name, double b, double e, int parent) {
  Span s;
  s.name = name;
  s.start_ms = b;
  s.end_ms = e;
  s.parent = parent;
  return s;
}

TEST(SelfTimes, NestedChildrenSubtractOnlyFromTheirParent) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, -1),
      MakeSpan("child", 2, 8, 0),
      MakeSpan("grandchild", 3, 5, 1),
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 4);  // 10 - 6
  EXPECT_DOUBLE_EQ(self[1], 4);  // 6 - 2
  EXPECT_DOUBLE_EQ(self[2], 2);
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2], 10);
}

TEST(SelfTimes, SiblingsAndOverlapCountOnce) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 20, -1),
      MakeSpan("a", 1, 4, 0),
      MakeSpan("b", 6, 9, 0),
      MakeSpan("c", 8, 12, 0),  // overlaps b by 1 ms
  };
  const std::vector<double> self = SelfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 20 - 3 - 6);  // union of [1,4] and [6,12]
  EXPECT_DOUBLE_EQ(self[1], 3);
}

TEST(SelfTimes, ByNameAggregatesCalls) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 10, -1),
      MakeSpan("x", 0, 2, 0),
      MakeSpan("x", 5, 6, 0),
  };
  const auto by = ByName(spans);
  EXPECT_EQ(by.at("x").calls, 2u);
  EXPECT_DOUBLE_EQ(by.at("x").total_ms, 3);
  EXPECT_DOUBLE_EQ(by.at("root").self_ms, 7);
}

TEST(Tracer, DisabledRecordsNothingAndScopesNest) {
  Tracer off(false);
  { const Tracer::Scope s(off, "x", 1); }
  EXPECT_TRUE(off.spans().empty());

  Tracer on(true);
  {
    const Tracer::Scope a(on, "a", 1);
    { const Tracer::Scope b(on, "b", 1); }
    { const Tracer::Scope c(on, "c", 1); }
  }
  ASSERT_EQ(on.spans().size(), 3u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[2].parent, 0);
  EXPECT_LE(on.spans()[1].end_ms, on.spans()[2].start_ms);
}

TEST(Digest, OrderAndValueSensitive) {
  Digest a, b, c;
  a.Add(1.5, 10);
  a.Add(2.5, 20);
  b.Add(1.5, 10);
  b.Add(2.5, 20);
  c.Add(2.5, 20);
  c.Add(1.5, 10);
  EXPECT_EQ(a.value(), b.value());
  EXPECT_NE(a.value(), c.value());
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(CaseGeoMean, EachCaseCountsOnceInAnyOrder) {
  CaseGeoMean a, b;
  EXPECT_TRUE(a.Add("x", 2));
  EXPECT_TRUE(a.Add("y", 8));
  EXPECT_TRUE(b.Add("y", 8));
  EXPECT_TRUE(b.Add("x", 2));
  EXPECT_TRUE(b.Add("x", 2));  // a repeat does not weigh the mean
  EXPECT_EQ(a.value(), b.value());
  EXPECT_DOUBLE_EQ(a.value(), 4.0);
  EXPECT_EQ(CaseGeoMean{}.value(), 0);
}

TEST(CaseGeoMean, RejectsADifferentValueForASeenCase) {
  CaseGeoMean m;
  EXPECT_TRUE(m.Add("x", 2));
  EXPECT_FALSE(m.Add("x", 2.5));
}

// A reduced train_replay: 16 ranks, a short pass of small buffers.
TrainReplayShape Reduced() {
  TrainReplayShape s;
  s.nodes = 2;
  s.gpus_per_node = 8;
  s.ops_per_pass = 27;  // one of each (backend, collective, octave)
  s.max_mib = 8;
  s.setup_reps = 1;
  return s;
}

TEST(TrainReplay, SameSeedSameDigest) {
  RunOptions o;
  o.seed = 7;
  o.seconds = 0.01;  // one pass
  const WorkloadResult a = RunTrainReplay(o, Reduced());
  const WorkloadResult b = RunTrainReplay(o, Reduced());
  EXPECT_TRUE(a.correct);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(a.sim_digest, b.sim_digest);
  EXPECT_EQ(a.end_to_end.Get("sim_algbw_gbps").value,
            b.end_to_end.Get("sim_algbw_gbps").value);
}

TEST(TrainReplay, DifferentSeedDifferentMix) {
  const std::vector<TrainOp> a = GenerateTrainOps(7, Reduced());
  const std::vector<TrainOp> b = GenerateTrainOps(8, Reduced());
  ASSERT_EQ(a.size(), b.size());
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs |= a[i].backend != b[i].backend || a[i].op != b[i].op ||
               a[i].kib != b[i].kib;
    // The buffer size changes on every call.
    if (i > 0) EXPECT_NE(a[i].kib, a[i - 1].kib);
  }
  EXPECT_TRUE(differs);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const std::vector<TrainOp> full =
        GenerateTrainOps(seed, TrainReplayShape{});
    for (std::size_t i = 1; i < full.size(); ++i) {
      EXPECT_NE(full[i].kib, full[i - 1].kib) << "seed " << seed << " at " << i;
    }
  }

  RunOptions o;
  o.seconds = 0.01;
  o.seed = 7;
  const WorkloadResult ra = RunTrainReplay(o, Reduced());
  o.seed = 8;
  const WorkloadResult rb = RunTrainReplay(o, Reduced());
  EXPECT_NE(ra.sim_digest, rb.sim_digest);
  // The seed reorders one fixed multiset of calls, so the simulated
  // bandwidth is the same for every seed.
  EXPECT_EQ(ra.end_to_end.Get("sim_algbw_gbps").value,
            rb.end_to_end.Get("sim_algbw_gbps").value);
  EXPECT_GT(ra.end_to_end.Get("sim_algbw_gbps").value, 0);
}

TEST(TrainReplay, TracedRunReproducesUntracedDigest) {
  RunOptions o;
  o.seed = 3;
  o.seconds = 0.01;  // passes 0 (untraced) and 1 (traced) both run
  TrainReplayShape shape = Reduced();
  shape.setup_reps = 3;
  const WorkloadResult untraced = RunTrainReplay(o, shape);
  o.trace = true;
  const WorkloadResult traced = RunTrainReplay(o, shape);
  EXPECT_TRUE(traced.correct) << (traced.errors.empty() ? ""
                                                        : traced.errors[0]);
  EXPECT_EQ(untraced.sim_digest, traced.sim_digest);
  EXPECT_GT(traced.per_layer.Get("sim.events").value, 0);
  EXPECT_GT(traced.per_layer.Get("core.tasks").value, 0);
  // The ResCCL AllReduce is parsed from ResCCLang and strictly verified.
  EXPECT_GT(traced.per_layer.Get("lang.compile_source_ms").value, 0);
  EXPECT_GT(traced.per_layer.Get("analysis.verify_ms").value, 0);
}

}  // namespace
}  // namespace perfbench
