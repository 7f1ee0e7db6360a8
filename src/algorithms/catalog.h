// The algorithm catalog: one table of every library algorithm, keyed by
// the name `resccl run --algo` takes. The CLI lists and looks up through
// it, the selector builds its candidates from it, and the property suites
// sweep it, so all three cover the same library by construction.
//
// Each row carries the collective it implements, a factory, and the
// topologies it applies to. The factories are the library's own (ring.h,
// hierarchical.h, ...); a row only fixes their topology-derived arguments
// (rank count, Topology::CommChannels rings, composition chunking).
#pragma once

#include <span>
#include <string_view>

#include "core/algorithm.h"
#include "topology/topology.h"

namespace resccl::algorithms {

struct CatalogEntry {
  const char* name;
  CollectiveOp op;
  Algorithm (*make)(const Topology&);
  // False where `make` is undefined for the topology (recursive doubling
  // off power-of-two rank counts, composition on a fabric whose levels do
  // not divide evenly).
  bool (*applies)(const Topology&);
};

[[nodiscard]] std::span<const CatalogEntry> Catalog();

// The row named `name`, or nullptr.
[[nodiscard]] const CatalogEntry* FindAlgorithm(std::string_view name);

}  // namespace resccl::algorithms
