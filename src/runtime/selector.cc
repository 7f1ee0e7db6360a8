#include "runtime/selector.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "algorithms/catalog.h"
#include "common/check.h"
#include "common/thread_pool.h"

namespace resccl {

namespace {

// The catalog rows (algorithms/catalog.h) the selector scores per op, in
// scoring order: the flat library shapes, then the N-level compositions.
struct CandidateNames {
  std::vector<std::string_view> flat;
  std::vector<std::string_view> composed;
};

CandidateNames CandidatesFor(CollectiveOp op) {
  switch (op) {
    case CollectiveOp::kAllGather:
      return {{"hm_allgather", "mc_ring_allgather", "oneshot_allgather",
               "rd_allgather"},
              {"hc_allgather"}};
    case CollectiveOp::kReduceScatter:
      return {{"hm_reducescatter", "mc_ring_reducescatter"},
              {"hc_reducescatter"}};
    case CollectiveOp::kAllReduce:
      return {{"hm_allreduce", "mc_ring_allreduce", "tree_allreduce",
               "rhd_allreduce"},
              {"hc_allreduce", "hc_allreduce_coarse"}};
    case CollectiveOp::kBroadcast:
      return {{"chain_broadcast", "binomial_broadcast"}, {}};
    case CollectiveOp::kReduce:
      return {{"chain_reduce", "binomial_reduce"}, {}};
  }
  return {};
}

struct PreparedCandidate {
  PreparedPlan plan;
  double prepare_us = 0;        // this-sweep prepare cost
  bool plan_cache_hit = false;  // served without compiling
};

// Prepares every candidate exactly once, through `cache` when given.
std::vector<PreparedCandidate> PrepareCandidates(
    const std::vector<Algorithm>& candidates, const Topology& topo,
    BackendKind backend, PlanCache* cache, PrepareStats& stats) {
  const CompileOptions options = DefaultCompileOptions(backend);
  auto shared_topo = std::make_shared<const Topology>(topo);
  std::vector<PreparedCandidate> prepared;
  prepared.reserve(candidates.size());
  for (const Algorithm& algo : candidates) {
    PreparedCandidate c;
    if (cache != nullptr) {
      Result<PlanCache::Lookup> got =
          cache->GetOrPrepare(algo, shared_topo, options, BackendName(backend));
      if (!got.ok()) {
        throw std::invalid_argument("candidate '" + algo.name +
                                    "' failed: " + got.status().ToString());
      }
      c.plan = got.value().plan;
      c.prepare_us = got.value().prepare_us;
      c.plan_cache_hit = got.value().hit;
    } else {
      Result<PreparedPlan> got =
          Prepare(algo, shared_topo, options, BackendName(backend));
      if (!got.ok()) {
        throw std::invalid_argument("candidate '" + algo.name +
                                    "' failed: " + got.status().ToString());
      }
      c.plan = std::move(got).value();
      c.prepare_us = c.plan->prepare_us;
    }
    if (c.plan_cache_hit) {
      ++stats.cache_hits;
    } else {
      ++stats.prepares;
    }
    stats.prepare_us += c.prepare_us;
    prepared.push_back(std::move(c));
  }
  return prepared;
}

// The protocols one selection scores each candidate at. An explicit
// request protocol pins the column; Protocol::kAuto expands to all three so
// the selection finds the (algorithm, protocol) pair jointly and the
// scoreboard exposes the crossover.
std::vector<Protocol> ProtocolColumns(Protocol requested) {
  if (requested == Protocol::kAuto) {
    return {Protocol::kLL, Protocol::kLL128, Protocol::kSimple};
  }
  return {requested};
}

// Reduces one buffer size's already-computed reports (candidate-major,
// protocol-minor order) to a SelectionResult. Runs serially, in index
// order, so the outcome is independent of how the reports were produced.
// `first_point` charges the prepare cost; later sweep points report the
// plans as reused (hit, zero prepare). Each (candidate, protocol) cell is
// scored against its own static lower bound — candidates differ in chunk
// count and protocols in wire bytes, so effective bytes differ per cell.
SelectionResult SelectAtSize(const std::vector<PreparedCandidate>& prepared,
                             const std::vector<Protocol>& protos,
                             std::vector<CollectiveReport> reports,
                             const RunRequest& request, bool first_point) {
  SelectionResult result;
  bool have_best = false;
  std::size_t best_index = 0;

  for (std::size_t j = 0; j < prepared.size(); ++j) {
    const PreparedCandidate& c = prepared[j];
    for (std::size_t k = 0; k < protos.size(); ++k) {
      CollectiveReport& report = reports[j * protos.size() + k];
      report.plan_cache_hit = first_point ? c.plan_cache_hit : true;
      report.prepare_us = first_point && k == 0 ? c.prepare_us : 0.0;
      LaunchConfig launch = request.launch;
      launch.protocol = protos[k];
      const BoundReport bound = ComputeLowerBound(
          *c.plan->topo, request.cost, c.plan->plan.algo, launch);
      result.scoreboard.push_back({c.plan->plan.algo.name, protos[k],
                                   report.algo_bw.gbps(), report.elapsed,
                                   report.prepare_us, report.plan_cache_hit,
                                   bound.OptimalityPct(report.elapsed)});
      if (!have_best || report.elapsed < result.report.elapsed) {
        have_best = true;
        best_index = j;
        result.report = std::move(report);
        result.bound = bound;
      }
    }
  }
  std::stable_sort(result.scoreboard.begin(), result.scoreboard.end(),
                   [](const CandidateScore& a, const CandidateScore& b) {
                     return a.elapsed < b.elapsed;
                   });
  result.algorithm = prepared[best_index].plan->plan.algo;
  // The cells ran with explicit protocols; if the caller asked for kAuto,
  // the winner's report should still say the choice was automatic.
  if (request.launch.protocol == Protocol::kAuto) {
    result.report.protocol_auto = true;
  }
  return result;
}

}  // namespace

std::vector<Algorithm> CandidateAlgorithms(CollectiveOp op,
                                           const Topology& topo) {
  const CandidateNames names = CandidatesFor(op);
  std::vector<Algorithm> out;
  auto add = [&](std::string_view name) {
    const algorithms::CatalogEntry* row = algorithms::FindAlgorithm(name);
    RESCCL_CHECK_MSG(row != nullptr && row->op == op,
                     "selector candidate missing from the catalog");
    if (row->applies(topo)) out.push_back(row->make(topo));
  };
  for (const std::string_view name : names.flat) add(name);
  // The N-level rail-aligned composition joins the candidate set once the
  // fabric has real hierarchy beyond one rack; on flat testbeds it would
  // collapse to the HM shapes already present.
  if (topo.racks() > 1) {
    for (const std::string_view name : names.composed) add(name);
  }
  return out;
}

SelectionResult SelectAlgorithm(CollectiveOp op, const Topology& topo,
                                BackendKind backend, const RunRequest& request,
                                PlanCache* cache, int jobs) {
  SweepResult sweep = SelectAlgorithmSweep(
      op, topo, backend, request, {request.launch.buffer}, cache, jobs);
  SelectionResult result = std::move(sweep.points.front());
  result.prepare_stats = sweep.prepare_stats;
  return result;
}

SweepResult SelectAlgorithmSweep(CollectiveOp op, const Topology& topo,
                                 BackendKind backend,
                                 const RunRequest& base_request,
                                 const std::vector<Size>& buffers,
                                 PlanCache* cache, int jobs) {
  if (buffers.empty()) {
    throw std::invalid_argument("sweep needs at least one buffer size");
  }
  const std::vector<Algorithm> candidates = CandidateAlgorithms(op, topo);
  if (candidates.empty()) {
    throw std::invalid_argument("no candidate algorithm for this collective");
  }

  SweepResult sweep;
  const std::vector<PreparedCandidate> prepared = PrepareCandidates(
      candidates, topo, backend, cache, sweep.prepare_stats);

  // Every (size, candidate, protocol) cell is one Execute of an immutable
  // plan — independent, single-threaded simulations. Run the whole grid
  // through the pool, collect by index, then reduce each size serially in
  // candidate-major order: the result is bit-identical for every jobs
  // value.
  const std::vector<Protocol> protos =
      ProtocolColumns(base_request.launch.protocol);
  const std::size_t ncand = prepared.size();
  const std::size_t nproto = protos.size();
  std::vector<std::vector<CollectiveReport>> grid(buffers.size());
  for (auto& row : grid) row.resize(ncand * nproto);
  ParallelFor(ThreadPool::ResolveJobs(jobs), buffers.size() * ncand * nproto,
              [&](std::size_t cell) {
                const std::size_t i = cell / (ncand * nproto);
                const std::size_t j = (cell / nproto) % ncand;
                const std::size_t k = cell % nproto;
                RunRequest request = base_request;
                request.launch.buffer = buffers[i];
                request.launch.protocol = protos[k];
                grid[i][j * nproto + k] = Execute(*prepared[j].plan, request);
              });

  for (std::size_t i = 0; i < buffers.size(); ++i) {
    RunRequest request = base_request;
    request.launch.buffer = buffers[i];
    SelectionResult point =
        SelectAtSize(prepared, protos, std::move(grid[i]), request, i == 0);
    point.prepare_stats = sweep.prepare_stats;
    sweep.points.push_back(std::move(point));
  }
  return sweep;
}

}  // namespace resccl
