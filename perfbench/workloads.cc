#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "analysis/analyzer.h"
#include "common/rng.h"
#include "core/connection.h"
#include "core/dag.h"
#include "core/fingerprint.h"
#include "lang/eval.h"
#include "runtime/communicator.h"
#include "runtime/data_engine.h"
#include "runtime/exec_context.h"
#include "runtime/lowering.h"
#include "runtime/plan_cache.h"
#include "service/service.h"
#include "service/workload.h"

namespace perfbench {

using namespace resccl;

namespace {

// Names and units of the metrics every workload reports, in print order;
// BENCHMARK.json lists the same, and run.py checks that they agree.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"exec_p50_ms", "ms"},
      {"exec_p99_ms", "ms"},
      {"exec_per_s", "1/s"},
      {"sim_events_per_s", "1/s"},
      {"sim_algbw_gbps", "GB/s"},
      {"req_p50_ms", "ms"},
      {"req_p99_ms", "ms"},
      {"req_high_p99_ms", "ms"},
      {"served_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      // Set-up phase, per set-up (every plan of the workload, cold).
      {"lang.compile_source_ms", "ms"},
      {"core.compile_ms", "ms"},
      {"core.analysis_ms", "ms"},
      {"core.scheduling_ms", "ms"},
      {"core.allocation_ms", "ms"},
      {"core.lowering_ms", "ms"},
      {"core.validate_schedule_ms", "ms"},
      {"core.unattributed_ms", "ms"},
      {"core.tasks", "count"},
      {"core.subpipelines", "count"},
      {"core.tbs", "count"},
      {"analysis.verify_ms", "ms"},
      {"analysis.diagnostics", "count"},
      // Timed phase, per collective call.
      {"runtime.prepare_ms", "ms"},
      {"algorithms.build_ms", "ms"},
      {"runtime.resolve_protocol_ms", "ms"},
      {"runtime.lower_ms", "ms"},
      {"runtime.verify_ms", "ms"},
      {"runtime.execute_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.ns_per_event", "ns"},
      // Timed phase, counts over one pass of the call sequence
      // (train_replay) or the whole request stream
      // (serve_mixed).
      {"runtime.plan_cache.hits", "count"},
      {"runtime.plan_cache.misses", "count"},
      {"runtime.plan_cache.coalesced", "count"},
      {"runtime.plan_cache.evictions", "count"},
      {"runtime.plan_cache.hit_ratio", "ratio"},
      {"runtime.lowered_transfers", "count"},
      {"runtime.protocol.simple", "count"},
      {"runtime.protocol.ll", "count"},
      {"runtime.protocol.ll128", "count"},
      {"sim.events", "count"},
      {"sim.fluid.recompute_calls", "count"},
      {"sim.fluid.walk_visits", "count"},
      {"sim.fluid.binding_skips", "count"},
      {"sim.queue.popped", "count"},
      {"sim.queue.peak_heap", "count"},
      {"sim.queue.stale_ratio", "ratio"},
      // Service (serve_mixed).
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.submit_us", "us"},
      {"service.served", "count"},
      {"service.rejected", "count"},
      {"service.shed", "count"},
      {"service.failed", "count"},
      {"service.prepares", "count"},
      {"service.coalesced", "count"},
      {"service.max_queue_depth", "count"},
      // The trace itself.
      {"trace.unattributed_pct", "%"},
      {"trace.setup_overhead_pct", "%"},
      {"trace.exec_overhead_pct", "%"},
  };
  return kSpecs;
}

constexpr int kTrainMinMib = 1;
constexpr std::size_t kTrainVerifyEvery = 8;

constexpr std::array<BackendKind, 3> kBackends = {
    BackendKind::kResCCL, BackendKind::kMscclLike, BackendKind::kNcclLike};
constexpr std::array<CollectiveOp, 3> kOps = {CollectiveOp::kAllReduce,
                                              CollectiveOp::kAllGather,
                                              CollectiveOp::kReduceScatter};

// train_replay's one call that runs the ResCCLang HM program.
bool IsHm(BackendKind kind, CollectiveOp op) {
  return kind == BackendKind::kResCCL && op == CollectiveOp::kAllReduce;
}

void InitMetrics(WorkloadResult& r) {
  for (const MetricSpec& m : EndToEndMetrics()) {
    r.end_to_end.Set(m.name, 0, m.unit);
  }
  for (const MetricSpec& m : PerLayerMetrics()) {
    r.per_layer.Set(m.name, 0, m.unit);
  }
}

void SetE2e(WorkloadResult& r, const char* name, double v) {
  r.end_to_end.Set(name, v, r.end_to_end.Get(name).unit);
}

void SetLayer(WorkloadResult& r, const char* name, double v) {
  r.per_layer.Set(name, v, r.per_layer.Get(name).unit);
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Adds one ResCCL-backend call to sim_algbw_gbps. `key` names everything
// the simulation depends on, so a second call with the same key must
// simulate the same bandwidth.
void AddAlgbw(WorkloadResult& r, CaseGeoMean& algbw, const std::string& key,
              double gbps) {
  if (!algbw.Add(key, gbps)) {
    r.Fail("simulated bandwidth of " + key + " differs between calls");
  }
}

// The Fig. 16 HM-AllReduce program for an arbitrary cluster shape — the
// same source bench/fig10_workflow_breakdown generates, so the set-up
// phase exercises the full ResCCLang path.
std::string HmAllReduceSource(int nodes, int gpus) {
  std::ostringstream os;
  os << "def ResCCLAlgo(nRanks=" << nodes * gpus
     << ", AlgoName=\"HM\", OpType=\"Allreduce\"):\n"
     << "    nNodes = " << nodes << "\n"
     << "    nGpus = " << gpus << "\n"
     << "    nChunks = nNodes * nGpus\n"
     << "    for n in range(0, nNodes):\n"
     << "        for r in range(0, nGpus):\n"
     << "            for x in range(0, nNodes):\n"
     << "                for o in range(0, nGpus - 1):\n"
     << "                    src = nGpus * n + r\n"
     << "                    dst = (r + o + 1) % nGpus + nGpus * n\n"
     << "                    transfer(src, dst, x * (nGpus - 1) + o, (dst + x "
        "* nGpus) % nChunks, rrc)\n"
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + (b + 1) * nGpus) % nChunks, (c + (b + 2) * "
        "nGpus) % nChunks, nNodes * (nGpus - 1) + b, c, rrc)\n"
     << "    for c in range(0, nChunks):\n"
     << "        for b in range(0, nNodes - 1):\n"
     << "            transfer((c + b * nGpus) % nChunks, (c + (b + 1) * nGpus) "
        "% nChunks, nNodes * (nGpus - 1) + nNodes - 1 + b, c, recv)\n"
     << "    for n in range(0, nNodes):\n"
     << "        for r in range(0, nGpus):\n"
     << "            for x in range(0, nNodes):\n"
     << "                for o in range(0, nGpus - 1):\n"
     << "                    src = nGpus * n + r\n"
     << "                    dst = (r + o + 1) % nGpus + nGpus * n\n"
     << "                    transfer(src, dst, nNodes * (nGpus - 1) + 2 * "
        "nNodes - 2 + x, (r + x * nGpus) % nChunks, recv)\n";
  return os.str();
}

// ------------------------------------------------- decomposed set-up path --

// What one traced set-up learned about the plans it built.
struct SetupCounts {
  double analysis_us = 0, scheduling_us = 0, allocation_us = 0,
         lowering_us = 0;
  std::uint64_t tasks = 0, subpipelines = 0, tbs = 0, diagnostics = 0;
};

// Prepare, decomposed into the public calls it makes (Compile, then the
// static verifier under strict_verify), plus a direct ValidateSchedule
// over the compiled schedule so its share of Compile becomes visible.
// Builds the same artifact Prepare would.
Result<PreparedPlan> TracedPrepare(const Algorithm& algo,
                                   std::shared_ptr<const Topology> topo,
                                   const CompileOptions& options,
                                   std::string_view backend, Tracer& tr,
                                   std::uint64_t id, SetupCounts& counts) {
  const Tracer::Scope prepare(tr, "Prepare", id);
  const auto t0 = Clock::now();
  Result<CompiledCollective> compiled = [&] {
    const Tracer::Scope s(tr, "Compile", id);
    return Compile(algo, *topo, options);
  }();
  if (!compiled.ok()) return compiled.status();
  CompiledCollective& plan = compiled.value();
  {
    // Rebuilding the DAG is work only the trace does; its own span keeps
    // it out of ValidateSchedule's self time.
    const Tracer::Scope rebuild(tr, "trace.rebuild_dag", id);
    ConnectionTable connections(*topo);
    const DependencyGraph dag(plan.algo, connections);
    const Tracer::Scope s(tr, "ValidateSchedule", id);
    const Status valid = ValidateSchedule(plan.schedule, dag, connections);
    if (!valid.ok()) return valid;
  }
  if (options.strict_verify) {
    const AnalysisReport verdict = [&] {
      const Tracer::Scope s(tr, "AnalyzePlan", id);
      return AnalyzePlan(plan, topo.get());
    }();
    plan.stats.verify_us = verdict.analysis_us;
    counts.diagnostics += verdict.diagnostics.size();
    if (!verdict.clean()) {
      return Status::FailedPrecondition("strict verify rejected plan: " +
                                        verdict.Summary());
    }
  }
  counts.analysis_us += plan.stats.analysis_us;
  counts.scheduling_us += plan.stats.scheduling_us;
  counts.allocation_us += plan.stats.allocation_us;
  counts.lowering_us += plan.stats.lowering_us;
  counts.tasks += static_cast<std::uint64_t>(plan.algo.ntasks());
  counts.subpipelines += plan.schedule.sub_pipelines.size();
  counts.tbs += static_cast<std::uint64_t>(plan.tbs.total_tbs());

  auto prepared = std::make_shared<PreparedCollective>();
  prepared->topo = std::move(topo);
  prepared->plan = std::move(plan);
  prepared->backend = std::string(backend);
  prepared->prepare_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  return PreparedPlan(std::move(prepared));
}

// Fills the set-up per-layer metrics from one traced set-up's spans.
void FillSetupLayers(WorkloadResult& r, const Tracer& tr,
                     const SetupCounts& c) {
  const auto by = ByName(tr.spans());
  auto total = [&](const char* name) {
    auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second.total_ms;
  };
  const double phases_ms = (c.analysis_us + c.scheduling_us +
                            c.allocation_us + c.lowering_us) /
                           1e3;
  SetLayer(r, "lang.compile_source_ms", total("CompileSource"));
  SetLayer(r, "core.compile_ms", total("Compile"));
  SetLayer(r, "core.analysis_ms", c.analysis_us / 1e3);
  SetLayer(r, "core.scheduling_ms", c.scheduling_us / 1e3);
  SetLayer(r, "core.allocation_ms", c.allocation_us / 1e3);
  SetLayer(r, "core.lowering_ms", c.lowering_us / 1e3);
  SetLayer(r, "core.validate_schedule_ms", total("ValidateSchedule"));
  // Compile runs ValidateSchedule internally; the direct call measures it.
  SetLayer(r, "core.unattributed_ms",
           total("Compile") - phases_ms - total("ValidateSchedule"));
  SetLayer(r, "core.tasks", static_cast<double>(c.tasks));
  SetLayer(r, "core.subpipelines", static_cast<double>(c.subpipelines));
  SetLayer(r, "core.tbs", static_cast<double>(c.tbs));
  SetLayer(r, "analysis.verify_ms", total("AnalyzePlan"));
  SetLayer(r, "analysis.diagnostics", static_cast<double>(c.diagnostics));
}

// One plan a workload's set-up makes ready.
struct PlanSpec {
  Algorithm algo;
  CompileOptions options;
  std::string backend;
};

// The set-up phase: `reps` cold set-ups, each building the workload's plan
// specs with `build` (timed, since parsing belongs to set-up) and preparing
// every one into a fresh PlanCache. A traced run traces the middle set-up,
// through TracedPrepare; the others give setup_s and the overhead baseline.
struct Setup {
  Tracer tracer{false};
  SetupCounts counts;
  std::vector<double> seconds;       // one per untraced set-up
  double traced_wall_ms = 0;         // the traced set-up, timed outside
  std::shared_ptr<PlanCache> cache;  // the last set-up's
  std::vector<PreparedPlan> plans;   // the last set-up's, in spec order
};

void RunSetups(WorkloadResult& r, Setup& s, int reps, bool trace,
               const std::shared_ptr<const Topology>& topo,
               const PlanCache::Config& cache_config,
               const std::function<std::vector<PlanSpec>(Tracer&)>& build) {
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced = trace && rep == reps / 2;
    s.tracer.set_enabled(traced);
    s.cache = std::make_shared<PlanCache>(cache_config);
    s.plans.clear();
    const auto t0 = Clock::now();
    {
      const Tracer::Scope root(s.tracer, "setup", 0);
      std::uint64_t id = 0;
      for (const PlanSpec& p : build(s.tracer)) {
        ++r.attempted;
        Result<PreparedPlan> plan =
            traced ? TracedPrepare(p.algo, topo, p.options, p.backend,
                                   s.tracer, ++id, s.counts)
                   : [&]() -> Result<PreparedPlan> {
                       auto got = s.cache->GetOrPrepare(p.algo, topo,
                                                        p.options, p.backend);
                       if (!got.ok()) return got.status();
                       return got.value().plan;
                     }();
        if (!plan.ok()) {
          ++r.failed;
          r.Fail("prepare " + p.algo.name + ": " + plan.status().ToString());
          continue;
        }
        if (traced) {
          s.cache->Put(FingerprintOf(p.algo, topo->spec(), p.options),
                       plan.value());
        }
        s.plans.push_back(plan.value());
      }
    }
    const double sec = MsSince(t0) / 1e3;
    if (!traced) {
      s.seconds.push_back(sec);
    } else {
      s.traced_wall_ms = sec * 1e3;
      SetLayer(r, "trace.setup_overhead_pct",
               s.seconds.empty() ? 0
                                 : 100.0 * (sec / Median(s.seconds) - 1.0));
    }
  }
  s.tracer.set_enabled(false);
}

// ------------------------------------------------ decomposed execute path --

// Simulator and lowering counters summed over a set of calls.
struct ExecCounts {
  std::uint64_t lowered_transfers = 0, events = 0;
  std::uint64_t recompute = 0, walk = 0, skips = 0, popped = 0, stale = 0;
  std::uint64_t peak_heap = 0;
  std::array<std::uint64_t, 3> protocol{};  // Simple, LL, LL128

  void Add(const SimRunReport& sim, Protocol p) {
    events += sim.events;
    recompute += sim.fluid.recompute_calls;
    walk += sim.fluid.walk_visits;
    skips += sim.fluid.binding_skips;
    popped += sim.queue.popped;
    stale += sim.queue.skipped_stale;
    peak_heap = std::max<std::uint64_t>(peak_heap, sim.queue.peak_heap);
    const auto i = static_cast<std::size_t>(p);
    if (i < protocol.size()) ++protocol[i];
  }
};

void FillExecCounts(WorkloadResult& r, const ExecCounts& c) {
  SetLayer(r, "runtime.lowered_transfers",
           static_cast<double>(c.lowered_transfers));
  SetLayer(r, "runtime.protocol.simple", static_cast<double>(c.protocol[0]));
  SetLayer(r, "runtime.protocol.ll", static_cast<double>(c.protocol[1]));
  SetLayer(r, "runtime.protocol.ll128", static_cast<double>(c.protocol[2]));
  SetLayer(r, "sim.events", static_cast<double>(c.events));
  SetLayer(r, "sim.fluid.recompute_calls", static_cast<double>(c.recompute));
  SetLayer(r, "sim.fluid.walk_visits", static_cast<double>(c.walk));
  SetLayer(r, "sim.fluid.binding_skips", static_cast<double>(c.skips));
  SetLayer(r, "sim.queue.popped", static_cast<double>(c.popped));
  SetLayer(r, "sim.queue.peak_heap", static_cast<double>(c.peak_heap));
  SetLayer(r, "sim.queue.stale_ratio",
           c.popped ? static_cast<double>(c.stale) /
                          static_cast<double>(c.popped)
                    : 0.0);
}

// ExecContext::Execute, decomposed into the public calls it makes —
// ResolveProtocol, LowerInto (only when the launch key changes),
// SimMachine::RunInto and VerifyLoweredExecution — with the same lowering
// cache and machine reuse, so it simulates exactly what Execute simulates.
class TracedExecutor {
 public:
  struct Outcome {
    double makespan_us = 0;
    std::uint64_t events = 0;
    bool verified = false;
    std::string verify_error;
    double algbw_gbps = 0;
  };

  Outcome Execute(const PreparedPlan& prepared, const RunRequest& request,
                  Tracer& tr, std::uint64_t id, ExecCounts& counts) {
    const Tracer::Scope exec(tr, "Execute", id);
    const PreparedCollective& pc = *prepared;
    const Topology& topo = *pc.topo;
    const CompiledCollective& cc = pc.plan;
    if (plan_ != prepared) plan_ = prepared;

    LaunchConfig launch = request.launch;
    {
      const Tracer::Scope s(tr, "ResolveProtocol", id);
      launch.protocol =
          ResolveProtocol(topo, request.cost, launch, cc.algo.nchunks);
    }
    const bool same_key =
        lowered_valid_ && lowered_for_ == &pc &&
        launch.buffer.bytes() == launch_.buffer.bytes() &&
        launch.chunk.bytes() == launch_.chunk.bytes() &&
        launch.protocol == launch_.protocol &&
        std::memcmp(&request.cost, &cost_key_, sizeof(CostModel)) == 0;
    if (!same_key) {
      const Tracer::Scope s(tr, "LowerInto", id);
      LowerInto(cc, request.cost, launch, lowered_,
                topo.spec().channels_per_peer);
      lowered_for_ = &pc;
      launch_ = launch;
      std::memcpy(&cost_key_, &request.cost, sizeof(CostModel));
      lowered_valid_ = true;
      counts.lowered_transfers += lowered_.program.transfers.size();
    }
    cost_ = request.cost;
    if (!machine_ || machine_topo_ != &topo) {
      machine_.reset();
      machine_.emplace(topo, cost_);
      machine_topo_ = &topo;
    }
    {
      const Tracer::Scope s(tr, "SimMachine::Run", id);
      machine_->RunInto(lowered_.program, nullptr, sim_);
    }
    counts.Add(sim_, launch.protocol);
    Outcome out;
    out.makespan_us = sim_.makespan.us();
    out.events = sim_.events;
    out.algbw_gbps = AlgoBandwidth(launch.buffer, sim_.makespan).gbps();
    if (request.verify) {
      const Tracer::Scope s(tr, "VerifyLoweredExecution", id);
      const VerifyResult v = VerifyLoweredExecution(cc, lowered_, sim_,
                                                    request.verify_elems);
      out.verified = v.ok;
      out.verify_error = v.error;
    }
    return out;
  }

 private:
  // Retained so `lowered_for_` can never match a recycled allocation.
  PreparedPlan plan_;
  LoweredProgram lowered_;
  const PreparedCollective* lowered_for_ = nullptr;
  LaunchConfig launch_;
  CostModel cost_key_;
  bool lowered_valid_ = false;
  CostModel cost_;
  std::optional<SimMachine> machine_;
  const Topology* machine_topo_ = nullptr;
  SimRunReport sim_;
};

// Per-call exec-phase layer times from the traced passes' spans.
void FillExecLayers(WorkloadResult& r, const Tracer& tr,
                    std::uint64_t traced_calls, std::uint64_t events) {
  if (traced_calls == 0) return;
  const auto by = ByName(tr.spans());
  const auto calls = static_cast<double>(traced_calls);
  auto per_call = [&](const char* name) {
    auto it = by.find(name);
    return it == by.end() ? 0.0 : it->second.total_ms / calls;
  };
  SetLayer(r, "runtime.prepare_ms", per_call("PlanCache::GetOrPrepare"));
  SetLayer(r, "algorithms.build_ms", per_call("DefaultAlgorithm"));
  SetLayer(r, "runtime.resolve_protocol_ms", per_call("ResolveProtocol"));
  SetLayer(r, "runtime.lower_ms", per_call("LowerInto"));
  SetLayer(r, "runtime.verify_ms", per_call("VerifyLoweredExecution"));
  SetLayer(r, "runtime.execute_ms", per_call("Execute"));
  SetLayer(r, "sim.run_ms", per_call("SimMachine::Run"));
  auto it = by.find("SimMachine::Run");
  if (it != by.end() && events > 0) {
    SetLayer(r, "sim.ns_per_event",
             it->second.total_ms * 1e6 / static_cast<double>(events));
  }
}

// Adds the wall time of its scope to `total_ms` when `on`. Declared just
// before a root span, it times the traced phase from outside the trace.
class WallTimer {
 public:
  WallTimer(double& total_ms, bool on)
      : total_ms_(total_ms), on_(on), t0_(Clock::now()) {}
  ~WallTimer() {
    if (on_) total_ms_ += MsSince(t0_);
  }
  WallTimer(const WallTimer&) = delete;
  WallTimer& operator=(const WallTimer&) = delete;

 private:
  double& total_ms_;
  bool on_;
  Clock::time_point t0_;
};

// Self-time accounting over both traced phases. `wall_ms` is their wall
// time taken with Clock around the root spans, independently of the trace.
// The layers' self times plus `idle` (serve_mixed waiting for the next
// arrival) plus the unattributed remainder make up that wall; the
// remainder is the roots' own time (benchmark glue) and any time outside
// every span. The check fails when the root spans do not cover the
// independently timed wall, i.e. when traced work escaped the spans.
void ReportSelfTimes(WorkloadResult& r, const std::vector<const Tracer*>& ts,
                     double wall_ms, const RunOptions& options,
                     const char* workload) {
  double roots = 0, idle = 0;
  std::map<std::string, LayerTime> layers;
  for (const Tracer* t : ts) {
    const std::vector<double> self = SelfTimes(t->spans());
    for (std::size_t i = 0; i < t->spans().size(); ++i) {
      const Span& s = t->spans()[i];
      if (s.parent < 0) {
        roots += s.end_ms - s.start_ms;
      } else if (s.name == "idle") {
        idle += self[i];
      } else {
        LayerTime& l = layers[s.name];
        l.self_ms += self[i];
        l.total_ms += s.end_ms - s.start_ms;
        ++l.calls;
      }
    }
  }
  double layer_sum = 0;
  r.notes.push_back("traced self time by span (ms):");
  for (const auto& [name, l] : layers) {
    layer_sum += l.self_ms;
    r.notes.push_back("  " + name +
                      Fmt(": self %.3f ms, total %.3f ms, calls %.0f",
                          l.self_ms, l.total_ms,
                          static_cast<double>(l.calls)));
  }
  const double unattributed = wall_ms - layer_sum - idle;
  r.notes.push_back(Fmt("self-time check: layers %.3f ms + idle %.3f ms + ",
                        layer_sum, idle) +
                    Fmt("unattributed %.3f ms = traced wall %.3f ms; ",
                        unattributed, wall_ms) +
                    Fmt("root spans cover %.3f ms of it", roots));
  // Clock reads and span bookkeeping between phases stay far below this.
  if (roots > wall_ms * (1 + 1e-9) || wall_ms - roots > 0.01 * wall_ms + 0.1) {
    r.Fail("root spans do not cover the independently timed traced wall");
  }
  const double busy = wall_ms - idle;
  SetLayer(r, "trace.unattributed_pct",
           busy > 0 ? 100.0 * unattributed / busy : 0);
  if (!options.trace_dir.empty()) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::string path = options.trace_dir + "/" + workload + "-seed" +
                               std::to_string(options.seed) + "-" +
                               std::to_string(i) + ".json";
      if (!ts[i]->WriteJson(path)) r.Fail("cannot write " + path);
      r.notes.push_back("spans written to " + path);
    }
  }
}

// The closed loop's end-to-end timings. Every untraced repetition of the
// pass is timed and each call enters at its best repetition (BestOf):
// interference on a shared host comes in bursts and plateaus that slow
// every call they overlap, by up to 2x, and the best of many repetitions
// spread over the run is what stays put from run to run. Latencies are
// percentiles over the pass's calls; rates divide one pass's calls and
// simulator events by the sum of their best times.
void FillClosedLoop(WorkloadResult& r, const BestOf& exec, const BestOf& req,
                    std::uint64_t pass_events, double setup_s,
                    const CaseGeoMean& resccl_algbw) {
  const std::vector<double> exec_ms = exec.best();
  const std::vector<double> req_ms = req.best();
  const double exec_s =
      std::accumulate(exec_ms.begin(), exec_ms.end(), 0.0) / 1e3;
  const double req_s = std::accumulate(req_ms.begin(), req_ms.end(), 0.0) / 1e3;
  const double rate =
      req_s > 0 ? static_cast<double>(req_ms.size()) / req_s : 0;
  const Tail exec_tail = TailPercentile(exec_ms);
  const Tail req_tail = TailPercentile(req_ms);
  SetE2e(r, "setup_s", setup_s);
  SetE2e(r, "exec_p50_ms", Median(exec_ms));
  SetE2e(r, "exec_p99_ms", exec_tail.value);
  SetE2e(r, "exec_per_s", rate);
  SetE2e(r, "sim_events_per_s",
         exec_s > 0 ? static_cast<double>(pass_events) / exec_s : 0);
  SetE2e(r, "sim_algbw_gbps", resccl_algbw.value());
  SetE2e(r, "req_p50_ms", Median(req_ms));
  SetE2e(r, "req_p99_ms", req_tail.value);
  // One client, one class: every call is in the highest class.
  SetE2e(r, "req_high_p99_ms", req_tail.value);
  // A failed call fails the run, so every counted call was served.
  SetE2e(r, "served_per_s", rate);
  r.notes.push_back(Fmt("exec timings: %.0f calls, each at its best of >= "
                        "%.0f repetitions; tail reported at p%.2f",
                        static_cast<double>(exec_tail.n),
                        static_cast<double>(exec.min_reps()),
                        100 * exec_tail.q));
}

double Overhead(const std::vector<double>& traced,
                const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0;
  return 100.0 * (Mean(traced) / Mean(untraced) - 1.0);
}

}  // namespace

// ============================================================= train_replay

std::vector<TrainOp> GenerateTrainOps(std::uint64_t seed,
                                      const TrainReplayShape& shape) {
  // Stratified: every (backend, collective, size octave) combination
  // appears equally often, its k-th occurrence at the k-th of evenly spaced
  // sizes (64 KiB multiples) across the octave of [1, max_mib] MiB —
  // log-uniform overall, spanning TP activations and DDP buckets. A pass
  // is therefore the same multiset of calls for every seed, and the seed
  // sets only the order: the amount of work and the simulated bandwidth do
  // not depend on it.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7261696eULL);
  int octaves = 0;
  for (int m = kTrainMinMib; m < shape.max_mib; m *= 2) ++octaves;
  octaves = std::max(octaves, 1);
  const int combos = 3 * 3 * octaves;
  const int reps = (shape.ops_per_pass + combos - 1) / combos;
  std::vector<TrainOp> ops;
  ops.reserve(static_cast<std::size_t>(shape.ops_per_pass));
  for (int i = 0; i < shape.ops_per_pass; ++i) {
    const int combo = i % combos;
    const int octave = combo / 9;
    const int lo = (kTrainMinMib << octave) * 1024;
    const int hi =
        octave + 1 == octaves ? shape.max_mib * 1024 : 2 * lo - 1;
    TrainOp op;
    op.backend = combo % 3;
    op.op = kOps[static_cast<std::size_t>(combo / 3 % 3)];
    op.kib = lo + (i / combos) * (std::max(lo, hi) - lo + 1) / reps / 64 * 64;
    ops.push_back(op);
  }
  for (std::size_t i = ops.size(); i > 1; --i) {  // Fisher-Yates
    const auto j = static_cast<std::size_t>(
        rng.NextInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(ops[i - 1], ops[j]);
  }
  // The buffer size changes on every call: swap each repeat with a call
  // that fits at both places.
  auto clash = [&](std::size_t k) {
    return (k > 0 && ops[k].kib == ops[k - 1].kib) ||
           (k + 1 < ops.size() && ops[k].kib == ops[k + 1].kib);
  };
  for (std::size_t i = 1; i < ops.size(); ++i) {
    for (std::size_t j = 0; ops[i].kib == ops[i - 1].kib && j < ops.size();
         ++j) {
      std::swap(ops[i], ops[j]);
      if (clash(i) || clash(j)) std::swap(ops[i], ops[j]);
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].verify = i % kTrainVerifyEvery == 0;
  }
  return ops;
}

WorkloadResult RunTrainReplay(const RunOptions& options,
                              const TrainReplayShape& shape) {
  WorkloadResult r;
  InitMetrics(r);
  const std::vector<TrainOp> ops = GenerateTrainOps(options.seed, shape);
  auto topo = std::make_shared<const Topology>(
      presets::A100(shape.nodes, shape.gpus_per_node));

  // --- Set-up: every (backend, collective) plan, from a cold cache. ---
  // The ResCCL AllReduce is the Fig. 16 HM-AllReduce written in ResCCLang:
  // parsed from source and prepared under strict_verify on every set-up, so
  // set-up covers the lang, core and analysis layers. strict_verify is not
  // part of the plan's fingerprint, so the ResCCL Communicator's calls with
  // its default options hit this plan.
  std::optional<Algorithm> hm;
  Setup setup;
  RunSetups(r, setup, shape.setup_reps, options.trace, topo, {},
            [&](Tracer& tr) {
              Result<Algorithm> parsed = [&] {
                const Tracer::Scope s(tr, "CompileSource", 0);
                return lang::CompileSource(
                    HmAllReduceSource(shape.nodes, shape.gpus_per_node));
              }();
              std::vector<PlanSpec> specs;
              if (!parsed.ok()) {
                ++r.attempted;
                ++r.failed;
                r.Fail("CompileSource: " + parsed.status().ToString());
                return specs;
              }
              hm = std::move(parsed).value();
              for (BackendKind kind : kBackends) {
                for (CollectiveOp op : kOps) {
                  CompileOptions opts = DefaultCompileOptions(kind);
                  if (IsHm(kind, op)) {
                    opts.strict_verify = true;
                    specs.push_back({*hm, opts, BackendName(kind)});
                  } else {
                    specs.push_back({DefaultAlgorithm(kind, op, *topo), opts,
                                     BackendName(kind)});
                  }
                }
              }
              return specs;
            });
  if (setup.plans.size() != kBackends.size() * kOps.size()) return r;
  const std::shared_ptr<PlanCache>& cache = setup.cache;

  std::vector<std::unique_ptr<Communicator>> comms;
  for (BackendKind kind : kBackends) {
    comms.push_back(std::make_unique<Communicator>(
        presets::A100(shape.nodes, shape.gpus_per_node), kind, cache));
  }
  std::array<TracedExecutor, 3> traced_exec;

  auto request_of = [](const TrainOp& op) {
    RunRequest req;
    req.launch.buffer = Size::KiB(op.kib);
    req.launch.protocol = Protocol::kAuto;
    req.verify = op.verify;
    return req;
  };
  auto call = [&](const TrainOp& op, const RunRequest& req) {
    const Communicator& c = *comms[static_cast<std::size_t>(op.backend)];
    switch (op.op) {
      case CollectiveOp::kAllGather: return c.AllGather(req);
      case CollectiveOp::kReduceScatter: return c.ReduceScatter(req);
      default:
        return IsHm(kBackends[static_cast<std::size_t>(op.backend)], op.op)
                   ? c.Run(*hm, req)
                   : c.AllReduce(req);
    }
  };
  // The algorithm a call runs, as the traced path builds it: the
  // Communicator builds the default algorithm on every call, and runs the
  // parsed HM program as it is.
  auto algorithm_of = [&](const TrainOp& op,
                          std::optional<Algorithm>& built) -> const Algorithm& {
    const BackendKind kind = kBackends[static_cast<std::size_t>(op.backend)];
    if (IsHm(kind, op.op)) return *hm;
    built = DefaultAlgorithm(kind, op.op, *topo);
    return *built;
  };

  // Warm-up: first Execute on each context builds its machine.
  for (std::size_t b = 0; b < comms.size(); ++b) {
    TrainOp op;
    op.backend = static_cast<int>(b);
    (void)call(op, request_of(op));
    if (options.trace) {
      ExecCounts scratch;
      Tracer off(false);
      std::optional<Algorithm> built;
      auto got = cache->GetOrPrepare(algorithm_of(op, built), topo,
                                     DefaultCompileOptions(kBackends[b]),
                                     BackendName(kBackends[b]));
      if (got.ok()) {
        (void)traced_exec[b].Execute(got.value().plan, request_of(op), off, 0,
                                     scratch);
      }
    }
  }

  // --- Timed phase: closed loop, one client, passes over `ops`. ---
  // Traced runs alternate untraced and traced passes; pass 0 is always
  // untraced and fixes the digest and the deterministic figures.
  Tracer exec_tr(false);
  // Every pass is the same call sequence; each call's untraced
  // repetitions differ only by how the host behaved.
  BestOf best_exec(ops.size()), best_req(ops.size());
  std::uint64_t pass_events = 0;  // pass 0's simulator events
  CaseGeoMean first_pass_algbw;
  std::vector<std::pair<double, std::uint64_t>> first_pass_sim;
  Digest digest;
  // Counts of pass 1, the first traced pass (deterministic).
  ExecCounts traced_counts, pass1_counts;
  PlanCache::Stats cache_before{}, pass1_cache{};
  std::array<double, 2> pass_ms{};  // passes 0 and 1: tracing overhead
  std::uint64_t traced_calls = 0;
  double traced_wall_ms = 0;
  // Pass 0 is untraced; a traced run needs pass 1 as well. After those the
  // run stops at the first call boundary past the time limit.
  const int min_passes = options.trace ? 2 : 1;
  const auto t_start = Clock::now();
  auto ready = t_start;  // when the client could issue the next call
  bool time_up = false;
  for (int pass = 0; !time_up; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    exec_tr.set_enabled(traced);
    if (pass == 1) cache_before = cache->stats();
    const WallTimer wall(traced_wall_ms, traced);
    const Tracer::Scope root(exec_tr, "pass",
                             static_cast<std::uint64_t>(pass));
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (pass >= min_passes && MsSince(t_start) / 1e3 >= options.seconds) {
        time_up = true;
        break;
      }
      const TrainOp& op = ops[i];
      const RunRequest req = request_of(op);
      const std::uint64_t id =
          static_cast<std::uint64_t>(pass) * ops.size() + i;
      ++r.attempted;
      double makespan_us = 0, algbw = 0;
      std::uint64_t events = 0;
      bool verified = true;
      std::string error;
      const auto t0 = Clock::now();
      if (traced) {
        const Tracer::Scope c(exec_tr, "call", id);
        const BackendKind kind =
            kBackends[static_cast<std::size_t>(op.backend)];
        std::optional<Algorithm> built;
        const Algorithm& algo = [&]() -> const Algorithm& {
          const Tracer::Scope s(exec_tr, "DefaultAlgorithm", id);
          return algorithm_of(op, built);
        }();
        Result<PlanCache::Lookup> got = [&] {
          const Tracer::Scope s(exec_tr, "PlanCache::GetOrPrepare", id);
          return cache->GetOrPrepare(algo, topo, DefaultCompileOptions(kind),
                                     BackendName(kind));
        }();
        if (!got.ok()) {
          error = got.status().ToString();
        } else {
          const TracedExecutor::Outcome o =
              traced_exec[static_cast<std::size_t>(op.backend)].Execute(
                  got.value().plan, req, exec_tr, id, traced_counts);
          makespan_us = o.makespan_us;
          events = o.events;
          algbw = o.algbw_gbps;
          verified = !req.verify || o.verified;
          if (!verified) error = o.verify_error;
        }
      } else {
        try {
          const CollectiveReport rep = call(op, req);
          makespan_us = rep.elapsed.us();
          events = rep.sim.events;
          algbw = rep.algo_bw.gbps();
          verified = !req.verify || rep.verified;
          if (!verified) error = rep.verify_error;
        } catch (const std::exception& e) {
          error = e.what();
        }
      }
      const auto t1 = Clock::now();
      const double exec_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double req_ms =
          std::chrono::duration<double, std::milli>(t1 - ready).count();
      ready = t1;
      if (pass == 0) {
        digest.Add(makespan_us, events);
        pass_events += events;
        first_pass_sim.emplace_back(makespan_us, events);
        if (op.backend == 0) {
          AddAlgbw(r, first_pass_algbw,
                   std::string(CollectiveOpName(op.op)) + "/" +
                       std::to_string(op.kib) + "KiB",
                   algbw);
        }
      }
      if (!error.empty()) {
        ++r.failed;
        r.Fail("call " + std::to_string(id) + " failed: " + error);
        continue;
      }
      if (pass < 2) pass_ms[static_cast<std::size_t>(pass)] += exec_ms;
      if (traced) {
        ++traced_calls;
        // The decomposed path must simulate exactly what Execute did.
        if (first_pass_sim[i].first != makespan_us ||
            first_pass_sim[i].second != events) {
          r.Fail("traced call " + std::to_string(id) +
                 " differs from the untraced makespan/event count");
        }
      } else {
        best_exec.Add(i, exec_ms);
        best_req.Add(i, req_ms);
      }
    }
    if (pass == 1) {
      pass1_counts = traced_counts;
      const PlanCache::Stats after = cache->stats();
      pass1_cache.hits = after.hits - cache_before.hits;
      pass1_cache.misses = after.misses - cache_before.misses;
      pass1_cache.coalesced = after.coalesced - cache_before.coalesced;
      pass1_cache.evictions = after.evictions - cache_before.evictions;
    }
  }
  exec_tr.set_enabled(false);
  const double timed_s = MsSince(t_start) / 1e3;

  r.sim_digest = digest.Hex();
  FillClosedLoop(r, best_exec, best_req, pass_events, Median(setup.seconds),
                 first_pass_algbw);
  SetE2e(r, "peak_rss_mb", PeakRssMb());
  r.notes.push_back(Fmt("setup reps: %.0f, timed %.2f s, calls %.0f",
                        static_cast<double>(setup.seconds.size()), timed_s,
                        static_cast<double>(r.attempted)));
  if (options.trace) {
    FillSetupLayers(r, setup.tracer, setup.counts);
    FillExecLayers(r, exec_tr, traced_calls, traced_counts.events);
    FillExecCounts(r, pass1_counts);
    const auto& c = pass1_cache;
    SetLayer(r, "runtime.plan_cache.hits", static_cast<double>(c.hits));
    SetLayer(r, "runtime.plan_cache.misses", static_cast<double>(c.misses));
    SetLayer(r, "runtime.plan_cache.coalesced",
             static_cast<double>(c.coalesced));
    SetLayer(r, "runtime.plan_cache.evictions",
             static_cast<double>(c.evictions));
    SetLayer(r, "runtime.plan_cache.hit_ratio",
             c.hits + c.misses ? static_cast<double>(c.hits) /
                                     static_cast<double>(c.hits + c.misses)
                               : 0);
    SetLayer(r, "trace.exec_overhead_pct",
             100.0 * (pass_ms[1] / pass_ms[0] - 1.0));
    ReportSelfTimes(r, {&setup.tracer, &exec_tr},
                    setup.traced_wall_ms + traced_wall_ms, options,
                    "train_replay");
  }
  return r;
}

// ============================================================== serve_mixed

WorkloadResult RunServeMixed(const RunOptions& options) {
  // Offered requests per second: utilisation about 0.5 on 3 workers, so a
  // host slowdown of a third still leaves headroom (at 400 req/s such
  // periods saturated the workers and the queue, not the program, set the
  // tail).
  constexpr double kRate = 300;
  constexpr int kSetupReps = 25;
  constexpr std::size_t kSegment = 256;  // requests generated at a time
  // sim_digest covers this prefix of the stream, so it does not depend on
  // --seconds; shorter runs are lengthened to it.
  constexpr std::size_t kDigestRequests = 1024;
  WorkloadResult r;
  InitMetrics(r);
  auto topo = std::make_shared<const Topology>(presets::A100(4, 8));

  service::WorkloadSpec spec;
  spec.mean_interarrival_us = 1e6 / kRate;
  spec.distinct_shapes = 4;
  spec.tenants = {{"t0", 4}, {"t1", 2}, {"t2", 1}, {"t3", 1}};
  spec.p_high = 0.2;
  spec.p_low = 0.3;
  spec.min_buffer_mib = 1;
  spec.max_buffer_mib = 64;

  // The stream is generated in segments, each from its own seed, and kept
  // compact — a shape index instead of an Algorithm copy per request — so
  // peak RSS measures the service, not the size of the input. Each segment
  // starts where the previous one ended, so interarrivals stay i.i.d.
  // exponential: one Poisson stream.
  struct Arrival {
    double arrival_us = 0;
    std::size_t shape = 0;
    service::Request req;  // algorithm left empty until submission
  };
  std::vector<service::Request> shapes;  // one template per algorithm
  std::vector<Arrival> arrivals;
  const std::size_t total =
      std::max(kDigestRequests,
               static_cast<std::size_t>(std::lround(kRate * options.seconds)));
  const double stream_s = static_cast<double>(total) / kRate;
  arrivals.reserve(total);
  for (std::uint64_t segment = 0; arrivals.size() < total; ++segment) {
    spec.seed = options.seed * 0x100000001b3ULL + segment;
    spec.requests =
        static_cast<int>(std::min(kSegment, total - arrivals.size()));
    const double offset = arrivals.empty() ? 0 : arrivals.back().arrival_us;
    for (service::Arrival& a : GenerateWorkload(*topo, spec)) {
      Arrival c;
      c.arrival_us = offset + a.arrival_us;
      c.shape = static_cast<std::size_t>(
          std::find_if(shapes.begin(), shapes.end(),
                       [&](const service::Request& t) {
                         return t.algorithm.name == a.req.algorithm.name;
                       }) -
          shapes.begin());
      if (c.shape == shapes.size()) shapes.push_back(a.req);
      c.req = std::move(a.req);
      c.req.algorithm = Algorithm{};
      c.req.run.verify = arrivals.size() % 8 == 0;
      arrivals.push_back(std::move(c));
    }
  }

  // --- Set-up: the stream's working set of shapes, from a cold cache. ---
  Setup setup;
  RunSetups(r, setup, kSetupReps, options.trace, topo,
            PlanCache::Config{shapes.size(), 1, ""}, [&](Tracer&) {
              std::vector<PlanSpec> specs;
              for (const service::Request& t : shapes) {
                specs.push_back({t.algorithm, t.options, t.backend});
              }
              return specs;
            });

  // --- Timed phase: open loop against a live service. ---
  service::ServiceConfig cfg;
  cfg.max_in_flight = 3;
  cfg.deterministic = false;
  cfg.cache.capacity = 2;  // below the 4-shape working set
  cfg.cache.shards = 1;
  cfg.tenants = spec.tenants;
  service::SchedulingService svc(topo, cfg);

  struct Pending {
    double due_ms = 0;
    double submit_ms = 0;
    bool traced = false;
  };
  std::vector<Pending> pending;  // indexed by arrival
  pending.reserve(arrivals.size());
  std::unordered_map<std::uint64_t, std::size_t> arrival_of;  // by id
  // Timings by window: the stream cut into equal slices of about
  // kWindowS, a request placed in the slice it was due in. Every slice
  // repeats one experiment — a Poisson stream at one rate and mix — and
  // host interference only slows it, so each timing is reported from its
  // best slice (BestWindowMedian, BestWindowTail).
  constexpr double kWindowS = 5;
  const auto nwindows = static_cast<std::size_t>(
      std::max(1.0, std::floor(stream_s / kWindowS)));
  std::vector<std::vector<double>> req_ms(nwindows), high_req_ms(nwindows),
      exec_ms(nwindows);
  std::vector<double> window_events(nwindows), window_exec_s(nwindows);
  auto window_of = [&](double due) {
    const double w =
        std::floor(due / 1e3 * static_cast<double>(nwindows) / stream_s);
    return static_cast<std::size_t>(
        std::clamp(w, 0.0, static_cast<double>(nwindows) - 1));
  };
  std::vector<double> late_ms, wait_ms, prepare_ms;
  std::vector<double> traced_req_ms, untraced_req_ms;
  CaseGeoMean resccl_algbw;
  std::vector<std::pair<double, std::uint64_t>> sim_by_arrival(
      arrivals.size());
  ExecCounts counts;
  std::uint64_t received = 0, served = 0;
  double last_done_ms = 0;
  double traced_wall_ms = 0;
  Tracer exec_tr(false);
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  auto now_ms = [&] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  };
  auto drain = [&] {
    std::vector<service::Response> done;
    {
      const Tracer::Scope s(exec_tr, "Drain", 0);
      done = svc.Drain();
    }
    const double t = now_ms();
    for (service::Response& resp : done) {
      ++received;
      const auto found = arrival_of.find(resp.id);
      if (found == arrival_of.end()) {
        r.Fail("response for unknown request id");
        continue;
      }
      const std::size_t i = found->second;
      const Pending& p = pending[i];
      const bool is_verify = i % 8 == 0;
      if (resp.outcome != service::Outcome::kServed) {
        ++r.failed;
        r.Fail(std::string("request ") + std::to_string(i) + " " +
               service::OutcomeName(resp.outcome) + " " + resp.error);
        continue;
      }
      if (is_verify && !resp.report.verified) {
        ++r.failed;
        r.Fail("verify mismatch on request " + std::to_string(i) +
               ": " + resp.report.verify_error);
        continue;
      }
      ++served;
      last_done_ms = std::max(last_done_ms, t);
      const double latency = t - p.due_ms;
      const std::size_t w = window_of(p.due_ms);
      req_ms[w].push_back(latency);
      (p.traced ? traced_req_ms : untraced_req_ms).push_back(latency);
      if (resp.priority == service::Priority::kHigh) {
        high_req_ms[w].push_back(latency);
      }
      wait_ms.push_back(resp.queue_wait_us / 1e3);
      prepare_ms.push_back(resp.report.prepare_us / 1e3);
      const double exec = t - p.submit_ms - resp.queue_wait_us / 1e3;
      exec_ms[w].push_back(exec);
      window_exec_s[w] += exec / 1e3;
      window_events[w] += static_cast<double>(resp.report.sim.events);
      sim_by_arrival[i] = {resp.report.elapsed.us(), resp.report.sim.events};
      counts.Add(resp.report.sim, resp.report.protocol);
      // The service's one-shot Execute lowers on every call.
      counts.lowered_transfers += resp.report.sim.transfers.size();
      if (resp.report.backend == "ResCCL") {
        AddAlgbw(r, resccl_algbw,
                 shapes[arrivals[i].shape].algorithm.name + "/" +
                     std::to_string(resp.bytes) + "B",
                 resp.report.algo_bw.gbps());
      }
    }
  };

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Arrival& a = arrivals[i];
    service::Request req = std::move(a.req);
    req.algorithm = shapes[a.shape].algorithm;
    const double due = a.arrival_us / 1e3;
    // Traced runs trace every other one-second block of the stream.
    const bool traced =
        options.trace && static_cast<long>(a.arrival_us / 1e6) % 2 == 1;
    exec_tr.set_enabled(traced);
    const WallTimer wall(traced_wall_ms, traced);
    const Tracer::Scope root(exec_tr, "arrival", i);
    for (double t = now_ms(); t < due; t = now_ms()) {
      drain();
      const double wait_us = std::min(200.0, (due - t) * 1e3);
      const Tracer::Scope idle(exec_tr, "idle", i);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(wait_us)));
    }
    const double submit = now_ms();
    late_ms.push_back(submit - due);
    pending.push_back({due, submit, traced});
    {
      const Tracer::Scope s(exec_tr, "Submit", i);
      arrival_of[svc.Submit(std::move(req))] = i;
    }
    ++r.attempted;
  }
  exec_tr.set_enabled(false);
  while (received < arrivals.size()) {
    drain();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double first_due = arrivals.front().arrival_us / 1e3;
  const double last_due = arrivals.back().arrival_us / 1e3;
  const double busy_s = (last_done_ms - first_due) / 1e3;

  Digest digest;
  for (std::size_t i = 0; i < kDigestRequests; ++i) {
    digest.Add(sim_by_arrival[i].first, sim_by_arrival[i].second);
  }
  r.sim_digest = digest.Hex();

  // Open-loop validity: a generator that lost its schedule, or a growing
  // backlog, means the latencies do not describe the offered load. Brief
  // host stalls delay the generator too; latency is timed from the due
  // time, so they are counted, and only a p99 lateness beyond ten mean
  // interarrival gaps counts as falling behind.
  const double offered_per_s =
      static_cast<double>(arrivals.size() - 1) / ((last_due - first_due) / 1e3);
  const double served_per_s = static_cast<double>(served) / busy_s;
  const Tail late = TailPercentile(late_ms);
  r.notes.push_back(Fmt("open loop: offered %.1f req/s, served %.1f req/s, "
                        "gen_late_p99_ms %.4f",
                        offered_per_s, served_per_s, late.value));
  if (late.value > 10 * 1e3 / kRate) {
    r.Fail(Fmt("invalid run: generator fell behind (late p99 %.3f ms)",
               late.value));
  }
  if (served_per_s < 0.97 * offered_per_s) {
    r.Fail(Fmt("invalid run: served %.1f/s is below the offered %.1f/s",
               served_per_s, offered_per_s));
  }

  const Tail exec_tail = BestWindowTail(exec_ms);
  const Tail req_tail = BestWindowTail(req_ms);
  const Tail high_tail = BestWindowTail(high_req_ms);
  double events_per_s = 0;
  for (std::size_t w = 0; w < nwindows; ++w) {
    if (window_exec_s[w] > 0) {
      events_per_s = std::max(events_per_s, window_events[w] / window_exec_s[w]);
    }
  }
  SetE2e(r, "setup_s", Median(setup.seconds));
  SetE2e(r, "exec_p50_ms", BestWindowMedian(exec_ms));
  SetE2e(r, "exec_p99_ms", exec_tail.value);
  SetE2e(r, "exec_per_s", served_per_s);
  SetE2e(r, "sim_events_per_s", events_per_s);
  SetE2e(r, "sim_algbw_gbps", resccl_algbw.value());
  SetE2e(r, "req_p50_ms", BestWindowMedian(req_ms));
  SetE2e(r, "req_p99_ms", req_tail.value);
  SetE2e(r, "req_high_p99_ms", high_tail.value);
  SetE2e(r, "served_per_s", served_per_s);
  SetE2e(r, "peak_rss_mb", PeakRssMb());
  r.notes.push_back(
      Fmt("timings, best of %.0f windows: req tail p%.2f (n>=%.0f), ",
          static_cast<double>(req_tail.windows), 100 * req_tail.q,
          static_cast<double>(req_tail.n)) +
      Fmt("high p%.2f (n>=%.0f), exec p%.2f", 100 * high_tail.q,
          static_cast<double>(high_tail.n), 100 * exec_tail.q));

  if (options.trace) {
    const service::SchedulingService::Stats st = svc.stats();
    const PlanCache::Stats cs = svc.plan_cache().stats();
    FillSetupLayers(r, setup.tracer, setup.counts);
    FillExecCounts(r, counts);
    // Per served request, from the reports: the service is opaque.
    SetLayer(r, "runtime.prepare_ms", Mean(prepare_ms));
    SetLayer(r, "runtime.plan_cache.hits", static_cast<double>(cs.hits));
    SetLayer(r, "runtime.plan_cache.misses", static_cast<double>(cs.misses));
    SetLayer(r, "runtime.plan_cache.coalesced",
             static_cast<double>(cs.coalesced));
    SetLayer(r, "runtime.plan_cache.evictions",
             static_cast<double>(cs.evictions));
    SetLayer(r, "runtime.plan_cache.hit_ratio",
             cs.hits + cs.misses ? static_cast<double>(cs.hits) /
                                       static_cast<double>(cs.hits + cs.misses)
                                 : 0);
    SetLayer(r, "service.queue_wait_p50_ms", Median(wait_ms));
    SetLayer(r, "service.queue_wait_p99_ms", TailPercentile(wait_ms).value);
    const auto by = ByName(exec_tr.spans());
    if (auto it = by.find("Submit"); it != by.end() && it->second.calls) {
      SetLayer(r, "service.submit_us",
               1e3 * it->second.total_ms /
                   static_cast<double>(it->second.calls));
    }
    SetLayer(r, "service.served", static_cast<double>(st.served));
    SetLayer(r, "service.rejected", static_cast<double>(st.rejected));
    SetLayer(r, "service.shed", static_cast<double>(st.shed));
    SetLayer(r, "service.failed", static_cast<double>(st.failed));
    SetLayer(r, "service.prepares", static_cast<double>(st.prepares));
    SetLayer(r, "service.coalesced", static_cast<double>(st.coalesced));
    SetLayer(r, "service.max_queue_depth",
             static_cast<double>(st.max_queue_depth));
    SetLayer(r, "trace.exec_overhead_pct",
             Overhead(traced_req_ms, untraced_req_ms));
    ReportSelfTimes(r, {&setup.tracer, &exec_tr},
                    setup.traced_wall_ms + traced_wall_ms, options,
                    "serve_mixed");
  }
  return r;
}

}  // namespace perfbench
