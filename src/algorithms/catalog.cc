#include "algorithms/catalog.h"

#include "algorithms/composition.h"
#include "algorithms/hierarchical.h"
#include "algorithms/recursive.h"
#include "algorithms/ring.h"
#include "algorithms/rooted.h"
#include "algorithms/synthesized.h"
#include "algorithms/tree.h"

namespace resccl::algorithms {

namespace {

using Op = CollectiveOp;

bool Always(const Topology&) { return true; }

bool PowerOfTwoRanks(const Topology& t) {
  const int n = t.nranks();
  return n > 0 && (n & (n - 1)) == 0;
}

constexpr CatalogEntry kCatalog[] = {
    {"ring_allgather", Op::kAllGather,
     [](const Topology& t) { return RingAllGather(t.nranks()); }, Always},
    {"ring_reducescatter", Op::kReduceScatter,
     [](const Topology& t) { return RingReduceScatter(t.nranks()); }, Always},
    {"ring_allreduce", Op::kAllReduce,
     [](const Topology& t) { return RingAllReduce(t.nranks()); }, Always},
    // One ring channel per driven rail.
    {"mc_ring_allgather", Op::kAllGather,
     [](const Topology& t) {
       return MultiChannelRingAllGather(t, t.CommChannels());
     },
     Always},
    {"mc_ring_reducescatter", Op::kReduceScatter,
     [](const Topology& t) {
       return MultiChannelRingReduceScatter(t, t.CommChannels());
     },
     Always},
    {"mc_ring_allreduce", Op::kAllReduce,
     [](const Topology& t) {
       return MultiChannelRingAllReduce(t, t.CommChannels());
     },
     Always},
    {"hm_allgather", Op::kAllGather, HierarchicalMeshAllGather, Always},
    {"hm_reducescatter", Op::kReduceScatter, HierarchicalMeshReduceScatter,
     Always},
    {"hm_allreduce", Op::kAllReduce, HierarchicalMeshAllReduce, Always},
    {"hc_allgather", Op::kAllGather,
     [](const Topology& t) { return ComposedAllGather(t); },
     ComposableTopology},
    {"hc_reducescatter", Op::kReduceScatter,
     [](const Topology& t) { return ComposedReduceScatter(t); },
     ComposableTopology},
    {"hc_allreduce", Op::kAllReduce,
     [](const Topology& t) { return ComposedAllReduce(t); },
     ComposableTopology},
    // Coarse chunking: one chunk class per local GPU instead of one per
    // rank. Fewer, larger flows keep fan-in low on oversubscribed trunks.
    {"hc_allreduce_coarse", Op::kAllReduce,
     [](const Topology& t) {
       CompositionSpec coarse;
       coarse.chunks = t.gpus_per_node();
       return ComposedAllReduce(t, coarse);
     },
     ComposableTopology},
    {"tree_allreduce", Op::kAllReduce,
     [](const Topology& t) { return DoubleBinaryTreeAllReduce(t.nranks()); },
     Always},
    {"rhd_allreduce", Op::kAllReduce,
     [](const Topology& t) {
       return RecursiveHalvingDoublingAllReduce(t.nranks());
     },
     PowerOfTwoRanks},
    {"rd_allgather", Op::kAllGather,
     [](const Topology& t) { return RecursiveDoublingAllGather(t.nranks()); },
     PowerOfTwoRanks},
    {"oneshot_allgather", Op::kAllGather,
     [](const Topology& t) { return OneShotAllGather(t.nranks()); }, Always},
    {"chain_broadcast", Op::kBroadcast,
     [](const Topology& t) { return ChainBroadcast(t.nranks()); }, Always},
    {"chain_reduce", Op::kReduce,
     [](const Topology& t) { return ChainReduce(t.nranks()); }, Always},
    {"binomial_broadcast", Op::kBroadcast,
     [](const Topology& t) { return BinomialTreeBroadcast(t.nranks()); },
     Always},
    {"binomial_reduce", Op::kReduce,
     [](const Topology& t) { return BinomialTreeReduce(t.nranks()); }, Always},
    {"taccl_allgather", Op::kAllGather, TacclLikeAllGather, Always},
    {"taccl_allreduce", Op::kAllReduce, TacclLikeAllReduce, Always},
    {"teccl_allgather", Op::kAllGather, TecclLikeAllGather, Always},
    {"teccl_allreduce", Op::kAllReduce, TecclLikeAllReduce, Always},
};

}  // namespace

std::span<const CatalogEntry> Catalog() { return kCatalog; }

const CatalogEntry* FindAlgorithm(std::string_view name) {
  for (const CatalogEntry& row : kCatalog) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

}  // namespace resccl::algorithms
