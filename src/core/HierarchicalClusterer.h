//===- core/HierarchicalClusterer.h - Figure 6 clustering ------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache-topology-aware iteration distribution algorithm of Figure 6.
/// Starting at the root of the cache hierarchy tree, iteration groups are
/// partitioned level by level: at each tree node the current group set is
/// split into as many clusters as the node has children, merging the
/// highest-affinity clusters first (affinity = dot product of the clusters'
/// "bitwise sum" sharing vectors), then greedily load-balanced within the
/// configured balance threshold (evicting the donor group with the highest
/// affinity to the recipient, splitting a group when no whole group fits).
/// After the leaf (L1) level, each cluster is the work of one core.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_CORE_HIERARCHICALCLUSTERER_H
#define CTA_CORE_HIERARCHICALCLUSTERER_H

#include "core/IterationGroup.h"
#include "topo/Topology.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace cta {

/// Output of the clustering stage.
struct ClusteringResult {
  /// Final groups. Load balancing may split groups: split parts are
  /// appended, so ids >= the input count are split tails.
  std::vector<IterationGroup> Groups;
  /// Per core (indexed by topology core id): assigned group ids.
  std::vector<std::vector<std::uint32_t>> CoreGroups;
  /// Splits performed: (parent group id, new tail group id). The tail
  /// contains iterations that follow the parent's remaining iterations, so
  /// dependence-aware scheduling must order parent before tail.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> Splits;
};

/// Runs the Figure 6 distribution of \p Groups over \p Topo (which may be
/// a level-restricted view of the machine). \p BalanceThreshold is the
/// maximum tolerable fractional imbalance of per-cluster iteration counts.
ClusteringResult clusterForTopology(std::vector<IterationGroup> Groups,
                                    const CacheTopology &Topo,
                                    double BalanceThreshold);

/// The agglomerative merge of Figure 6 at one cache-tree node, which
/// clusterForTopology runs at every node with more groups than children.
/// Starts from one singleton cluster per entry of \p GroupIds, whose
/// position is the cluster's id (the node's cluster order), and merges
/// until max(\p K, 1) clusters remain. A cluster's affinity to another is
/// the dot product of their block-count signatures. Merges follow a total
/// order, so the result depends on the inputs alone:
///  1. While some alive pair has nonzero affinity, merge the pair with the
///     largest dot, then the smallest combined iteration count, then the
///     lowest id A, then the lowest id B (A < B).
///  2. Then every alive pair has zero affinity, and merging keeps it zero
///     (the dot is bilinear). Merge the pair of clusters adjacent in id
///     order with the smallest combined iteration count, ties to the
///     lower left id.
/// The survivor of a merge keeps the lower id and appends the absorbed
/// cluster's groups after its own. Returns the surviving clusters in id
/// order, each as its group ids. Counts every merge in clusterer.merges
/// and the phase-2 ones in clusterer.zero-affinity-merges.
std::vector<std::vector<std::uint32_t>>
mergeByAffinity(const std::vector<IterationGroup> &Groups,
                const std::vector<std::uint32_t> &GroupIds, unsigned K);

} // namespace cta

#endif // CTA_CORE_HIERARCHICALCLUSTERER_H
