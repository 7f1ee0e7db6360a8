// ExecContext: the allocation-free Execute path.
//
// The free Execute (backend.h) builds everything per call — lowered program,
// simulation machine, report vectors. That is the right shape for one-shot
// runs, but a steady-state driver (benchmarks, the scheduling service, any
// caller replaying one prepared plan with varying faults) pays the same
// allocations on every call for state that is identical or shape-stable
// across calls. ExecContext hoists that state into a reusable object:
//
//   lowered program   cached per (plan, launch bytes, cost bytes); re-lowered
//                     in place (LowerInto) only when the key changes.
//   SimMachine        reused across calls (its queue and fluid network Reset
//                     instead of reconstructing); rebuilt only when the
//                     topology changes.
//   CollectiveReport  a member whose vectors keep their capacity; every
//                     field is reassigned per run.
//
// After a warm-up call, Execute with observe off and an unchanged key
// performs no heap allocation end-to-end (tests/test_alloc_free.cc holds
// this under a counting allocator).
//
// Not thread-safe: one ExecContext per thread. The returned report reference
// — including report().lowered when observe is set — is valid until the next
// Execute on this context or its destruction.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/backend.h"
#include "sim/machine.h"

namespace resccl {

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  // Simulates (and optionally verifies) one request against a prepared
  // artifact — same semantics as the free Execute (backend.h), which
  // delegates here. The plan is retained, so the pointer-keyed lowering
  // cache can never confuse a recycled allocation for a cache hit.
  const CollectiveReport& Execute(const PreparedPlan& prepared,
                                  const RunRequest& request);

  // The last Execute's report (same object Execute returns).
  [[nodiscard]] const CollectiveReport& report() const { return report_; }

 private:
  using LaunchKey = std::array<std::byte, sizeof(LaunchConfig)>;
  using CostKey = std::array<std::byte, sizeof(CostModel)>;

  // Retained artifact: guarantees `lowered_for_` and `machine_topo_` below
  // can never dangle or alias a recycled allocation between calls.
  PreparedPlan plan_;

  // Lowered-program cache. Shared so observe-mode reports can hand the
  // program out (CollectiveReport::lowered) without copying; the cached
  // program is only mutated by the next re-lower, at which point the
  // previous report is stale by contract anyway.
  std::shared_ptr<LoweredProgram> lowered_;
  const PreparedCollective* lowered_for_ = nullptr;
  LaunchKey launch_key_{};
  CostKey cost_key_{};
  bool lowered_valid_ = false;

  // Machine reuse. The machine holds `const CostModel&`, so it references
  // this member (stable address, value refreshed each call) rather than the
  // caller's transient RunRequest.
  CostModel cost_;
  std::optional<SimMachine> machine_;
  const Topology* machine_topo_ = nullptr;

  // Faulted-replay scratch (clean rerun + per-rank aggregation).
  SimRunReport clean_sim_;
  std::vector<SimTime> rank_finish_;
  std::vector<SimTime> rank_stall_;
  std::vector<SimTime> rank_sync_;
  std::vector<SimTime> rank_lifetime_;

  CollectiveReport report_;
};

}  // namespace resccl
