//===- tests/clusterer_test.cpp - Figure 6 clusterer tests ----------------===//

#include "core/HierarchicalClusterer.h"
#include "core/Tagger.h"
#include "driver/Experiment.h"
#include "exec/ExperimentRunner.h"
#include "obs/MetricSink.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <random>

using namespace cta;

namespace {

std::vector<IterationGroup> makeGroups(const Program &P,
                                       std::uint64_t BlockSize,
                                       unsigned Coarsen = 256) {
  DataBlockModel Blocks(P.Arrays, BlockSize);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  coarsenGroups(R.Groups, Coarsen);
  return R.Groups;
}

/// The merge of mergeByAffinity, recomputed naively: no heap, no
/// incremental rows. Every step rebuilds each alive cluster's block-count
/// signature from its members' tags, scores every alive pair, and takes
/// the best by (dot desc, combined size asc, A asc, B asc); when no pair
/// has affinity it merges the adjacent pair (in id order) with the
/// smallest combined size, ties to the lower left id.
std::vector<std::vector<std::uint32_t>>
referenceMerge(const std::vector<IterationGroup> &Groups,
               const std::vector<std::uint32_t> &GroupIds, unsigned K) {
  struct RefCluster {
    std::vector<std::uint32_t> Members;
    std::uint64_t Size = 0;
  };
  std::vector<RefCluster> Alive; // ascending id (input position)
  for (std::uint32_t Id : GroupIds)
    Alive.push_back({{Id}, Groups[Id].size()});

  auto signature = [&](const RefCluster &C) {
    std::map<std::uint32_t, std::uint64_t> Counts;
    for (std::uint32_t Id : C.Members)
      for (std::uint32_t B : Groups[Id].Tag.ids())
        ++Counts[B];
    return Counts;
  };
  while (Alive.size() > std::max(K, 1u)) {
    std::vector<std::map<std::uint32_t, std::uint64_t>> Sig;
    for (const RefCluster &C : Alive)
      Sig.push_back(signature(C));
    std::size_t BestA = 0, BestB = 0;
    std::uint64_t BestDot = 0, BestSize = 0;
    for (std::size_t A = 0; A != Alive.size(); ++A)
      for (std::size_t B = A + 1; B != Alive.size(); ++B) {
        std::uint64_t Dot = 0;
        for (auto [Block, Count] : Sig[A]) {
          auto It = Sig[B].find(Block);
          if (It != Sig[B].end())
            Dot += Count * It->second;
        }
        std::uint64_t Size = Alive[A].Size + Alive[B].Size;
        // Scanning (A, B) ascending, only a strictly better key wins.
        if (Dot > BestDot || (Dot == BestDot && Dot > 0 && Size < BestSize)) {
          BestA = A;
          BestB = B;
          BestDot = Dot;
          BestSize = Size;
        }
      }
    if (BestDot == 0) {
      BestSize = UINT64_MAX;
      for (std::size_t A = 0; A + 1 != Alive.size(); ++A)
        if (Alive[A].Size + Alive[A + 1].Size < BestSize) {
          BestA = A;
          BestB = A + 1;
          BestSize = Alive[A].Size + Alive[A + 1].Size;
        }
    }
    RefCluster &Survivor = Alive[BestA];
    Survivor.Members.insert(Survivor.Members.end(),
                            Alive[BestB].Members.begin(),
                            Alive[BestB].Members.end());
    Survivor.Size += Alive[BestB].Size;
    Alive.erase(Alive.begin() + static_cast<std::ptrdiff_t>(BestB));
  }
  std::vector<std::vector<std::uint32_t>> Out;
  for (RefCluster &C : Alive)
    Out.push_back(std::move(C.Members));
  return Out;
}

/// Random groups built for ties: sizes from {1, 2, 4}, tags of 1-3 blocks
/// drawn from one of a few small per-component block pools (so equal dots
/// are common), and a share of groups on private blocks that have zero
/// affinity to everything.
std::vector<IterationGroup> tiedGroups(std::mt19937 &Rng, unsigned Count) {
  std::vector<IterationGroup> Groups;
  std::uint32_t NextIter = 0;
  std::uint32_t PrivateBlock = 1000;
  for (unsigned I = 0; I != Count; ++I) {
    std::vector<std::uint32_t> Blocks;
    if (Rng() % 4 == 0) {
      Blocks.push_back(PrivateBlock++);
    } else {
      std::uint32_t Pool = 8 * (Rng() % 3);
      for (unsigned N = 1 + Rng() % 3; N != 0; --N)
        Blocks.push_back(Pool + Rng() % 6);
    }
    std::vector<std::uint32_t> Iters(1u << (Rng() % 3));
    std::iota(Iters.begin(), Iters.end(), NextIter);
    NextIter += Iters.size();
    Groups.emplace_back(BlockSet::fromUnsorted(std::move(Blocks)),
                        std::move(Iters));
  }
  return Groups;
}

std::vector<std::uint64_t> coreSizes(const ClusteringResult &R) {
  std::vector<std::uint64_t> Sizes(R.CoreGroups.size(), 0);
  for (std::size_t C = 0; C != R.CoreGroups.size(); ++C)
    for (std::uint32_t G : R.CoreGroups[C])
      Sizes[C] += R.Groups[G].size();
  return Sizes;
}

} // namespace

TEST(Clusterer, AssignsEveryGroupExactlyOnce) {
  Program P = makeStencil2D("s", 64, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  std::vector<unsigned> Owner(R.Groups.size(), UINT_MAX);
  for (std::size_t C = 0; C != R.CoreGroups.size(); ++C)
    for (std::uint32_t G : R.CoreGroups[C]) {
      EXPECT_EQ(Owner[G], UINT_MAX) << "group on two cores";
      Owner[G] = C;
    }
  for (unsigned O : Owner)
    EXPECT_NE(O, UINT_MAX) << "group unassigned";
}

TEST(Clusterer, PreservesIterationTotal) {
  Program P = makeBanded("b", 20000, 2048);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  std::uint64_t Before = 0;
  for (const IterationGroup &G : Groups)
    Before += G.size();

  CacheTopology Topo = makeHarpertown().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);
  std::uint64_t After = 0;
  for (std::uint64_t S : coreSizes(R))
    After += S;
  EXPECT_EQ(Before, After);
}

TEST(Clusterer, RespectsBalanceThreshold) {
  Program P = makeStencil2D("s", 96, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  std::vector<std::uint64_t> Sizes = coreSizes(R);
  std::uint64_t Total = 0;
  for (std::uint64_t S : Sizes)
    Total += S;
  double Ideal = static_cast<double>(Total) / Sizes.size();
  for (std::uint64_t S : Sizes) {
    EXPECT_LE(S, Ideal * 1.11 + 1.0) << "core over the balance threshold";
    EXPECT_GE(S + 1.0, Ideal * 0.89) << "core starved";
  }
}

TEST(Clusterer, SplitsAreRecordedAndConsistent) {
  Program P = makeStencil1D("s", 5000, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 2048, /*Coarsen=*/8);
  std::size_t Original = Groups.size();
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  // 8 coarse groups over 12 cores force splits.
  EXPECT_GT(R.Groups.size(), Original);
  EXPECT_EQ(R.Groups.size(), Original + R.Splits.size());
  for (auto [Parent, Child] : R.Splits) {
    EXPECT_LT(Parent, Child);
    EXPECT_LT(Child, R.Groups.size());
    EXPECT_EQ(R.Groups[Parent].Tag, R.Groups[Child].Tag);
    // Head precedes tail in iteration order.
    EXPECT_LT(R.Groups[Parent].Iterations.front(),
              R.Groups[Child].Iterations.front());
  }
}

TEST(Clusterer, FewerIterationsThanCoresLeavesIdleCores) {
  std::vector<IterationGroup> Groups;
  Groups.emplace_back(BlockSet::fromUnsorted({0}),
                      std::vector<std::uint32_t>{0});
  Groups.emplace_back(BlockSet::fromUnsorted({1}),
                      std::vector<std::uint32_t>{1});
  CacheTopology Topo = makeDunnington();
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);
  unsigned Busy = 0;
  for (const auto &CG : R.CoreGroups)
    if (!CG.empty())
      ++Busy;
  EXPECT_GE(Busy, 1u);
  EXPECT_LE(Busy, 2u);
}

TEST(Clusterer, SharingGroupsLandTogether) {
  // Two families of groups: family A shares block 100, family B shares
  // block 200, no cross sharing. On a 2-socket machine the families
  // should separate by socket (or at least not interleave pairwise).
  std::vector<IterationGroup> Groups;
  std::uint32_t Iter = 0;
  for (int I = 0; I < 8; ++I) {
    std::vector<std::uint32_t> Members;
    for (int K = 0; K < 10; ++K)
      Members.push_back(Iter++);
    BlockSet Tag = BlockSet::fromUnsorted(
        {static_cast<std::uint32_t>(I < 4 ? 100 : 200),
         static_cast<std::uint32_t>(I)});
    Groups.emplace_back(Tag, Members);
  }
  // Two cores sharing nothing but memory.
  CacheTopology Topo = makeSymmetricTopology(
      "pair", 2, {{1, 1, {1024, 2, 64, 2}}}, 100);
  ClusteringResult R = clusterForTopology(std::move(Groups), Topo, 0.10);

  // Each core should hold one family.
  for (const auto &CG : R.CoreGroups) {
    ASSERT_FALSE(CG.empty());
    bool HasA = false, HasB = false;
    for (std::uint32_t G : CG) {
      if (R.Groups[G].Tag.contains(100))
        HasA = true;
      if (R.Groups[G].Tag.contains(200))
        HasB = true;
    }
    EXPECT_NE(HasA, HasB) << "families mixed on one core";
  }
}

// Balance property across machines and workload shapes.
struct ClusterCase {
  const char *Preset;
  double Threshold;
};

class ClustererSweep : public ::testing::TestWithParam<ClusterCase> {};

TEST_P(ClustererSweep, BalancedOnEveryMachine) {
  auto [Preset, Threshold] = GetParam();
  Program P = makeStencil2D("s", 80, 1);
  std::vector<IterationGroup> Groups = makeGroups(P, 256);
  CacheTopology Topo = makePresetByName(Preset).scaledCapacity(1.0 / 32);
  ClusteringResult R =
      clusterForTopology(std::move(Groups), Topo, Threshold);

  std::vector<std::uint64_t> Sizes = coreSizes(R);
  std::uint64_t Total = 0, Max = 0;
  for (std::uint64_t S : Sizes) {
    Total += S;
    Max = std::max(Max, S);
  }
  double Ideal = static_cast<double>(Total) / Sizes.size();
  EXPECT_LE(static_cast<double>(Max), Ideal * (1.0 + Threshold) + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, ClustererSweep,
    ::testing::Values(ClusterCase{"harpertown", 0.10},
                      ClusterCase{"nehalem", 0.10},
                      ClusterCase{"dunnington", 0.10},
                      ClusterCase{"arch-i", 0.10},
                      ClusterCase{"arch-ii", 0.15},
                      ClusterCase{"dunnington", 0.05}));

TEST(MergeByAffinity, MatchesBruteForceReferenceUnderTies) {
  for (unsigned Seed = 1; Seed <= 150; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<IterationGroup> Groups = tiedGroups(Rng, 10 + Rng() % 40);
    // The node's cluster order is its input order, not group-id order: a
    // shuffled subset exercises ids that are positions.
    std::vector<std::uint32_t> Ids(Groups.size());
    std::iota(Ids.begin(), Ids.end(), 0u);
    std::shuffle(Ids.begin(), Ids.end(), Rng);
    Ids.resize(Ids.size() - Rng() % 4);
    for (unsigned K : {1u, 2u, 3u, 4u, 7u})
      ASSERT_EQ(mergeByAffinity(Groups, Ids, K),
                referenceMerge(Groups, Ids, K))
          << "seed " << Seed << ", K " << K;
  }
}

TEST(MergeByAffinity, ZeroAffinityRuleMergesSmallestAdjacentPair) {
  // Private blocks only, so every merge follows the adjacency rule. The
  // expected lists are spelled out so a slip shared by the reference and
  // the merger cannot hide.
  std::vector<IterationGroup> Groups;
  std::uint32_t Iter = 0;
  for (std::uint32_t Size : {4u, 1u, 1u, 4u, 2u, 2u}) {
    std::vector<std::uint32_t> Iters(Size);
    std::iota(Iters.begin(), Iters.end(), Iter);
    Iter += Size;
    Groups.emplace_back(BlockSet::fromUnsorted({Iter}), std::move(Iters));
  }
  std::vector<std::uint32_t> Ids = {0, 1, 2, 3, 4, 5};
  using Lists = std::vector<std::vector<std::uint32_t>>;
  // Sizes 4 1 1 4 2 2: (1,2) merges at 2, then (4,5) at 4. Sizes are
  // now 4 2 4 4, and (0,1) and (1,3) tie at 6: the lower left id wins.
  EXPECT_EQ(mergeByAffinity(Groups, Ids, 3),
            (Lists{{0, 1, 2}, {3}, {4, 5}}));
  EXPECT_EQ(mergeByAffinity(Groups, Ids, 3), referenceMerge(Groups, Ids, 3));
}

TEST(MergeByAffinity, CountsZeroAffinityMerges) {
  std::vector<IterationGroup> Disjoint, Shared;
  for (std::uint32_t I = 0; I != 12; ++I) {
    Disjoint.emplace_back(BlockSet::fromUnsorted({I}),
                          std::vector<std::uint32_t>{I});
    Shared.emplace_back(BlockSet::fromUnsorted({I, 100}),
                        std::vector<std::uint32_t>{I});
  }
  std::vector<std::uint32_t> Ids(12);
  std::iota(Ids.begin(), Ids.end(), 0u);

  obs::MetricSink DisjointSink;
  {
    obs::MetricScope Scope(DisjointSink);
    mergeByAffinity(Disjoint, Ids, 3);
  }
  EXPECT_EQ(DisjointSink.lookup("clusterer.merges"), 9u);
  EXPECT_EQ(DisjointSink.lookup("clusterer.zero-affinity-merges"), 9u);

  obs::MetricSink SharedSink;
  {
    obs::MetricScope Scope(SharedSink);
    mergeByAffinity(Shared, Ids, 3);
  }
  EXPECT_EQ(SharedSink.lookup("clusterer.merges"), 9u);
  // Published even at zero, beside clusterer.merges.
  EXPECT_EQ(SharedSink.snapshot().count("clusterer.zero-affinity-merges"),
            1u);
  EXPECT_EQ(SharedSink.lookup("clusterer.zero-affinity-merges"), 0u);
}

TEST(MergeByAffinity, ZeroAffinityCounterReachesRunArtifacts) {
  // applu's groups share no blocks, so every merge is a zero-affinity
  // one; h264 is sharing-rich, and its merges are almost all driven by
  // affinity.
  ExecConfig Config;
  Config.Jobs = 1;
  ExperimentRunner Runner(Config);
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();

  RunResult Applu = Runner.runOne(makeRunTask(
      makeWorkload("applu"), Dun, Strategy::TopologyAware, Opts,
      "applu/topology-aware"));
  EXPECT_EQ(Applu.Counters["clusterer.merges"], 844u);
  EXPECT_EQ(Applu.Counters["clusterer.zero-affinity-merges"], 844u);

  RunResult H264 = Runner.runOne(makeRunTask(
      makeWorkload("h264"), Dun, Strategy::TopologyAware, Opts,
      "h264/topology-aware"));
  EXPECT_EQ(H264.Counters["clusterer.merges"], 3191u);
  EXPECT_EQ(H264.Counters["clusterer.zero-affinity-merges"], 9u);
}
