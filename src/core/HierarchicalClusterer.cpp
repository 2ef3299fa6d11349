//===- core/HierarchicalClusterer.cpp - Figure 6 clustering ---------------===//

#include "core/HierarchicalClusterer.h"

#include "obs/MetricSink.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cmath>

using namespace cta;

namespace {

obs::Counter NumMerges("clusterer.merges");
obs::Counter NumZeroAffinityMerges("clusterer.zero-affinity-merges");
obs::Counter NumClusterSplits("clusterer.cluster-splits");
obs::Counter NumGroupSplits("clusterer.group-splits");
obs::Counter NumEvictions("clusterer.balance-evictions");

/// A working cluster: group ids plus the total iteration count. The
/// "bitwise sum" signature of Figure 6 is never materialized: the merge
/// phase tracks pairwise signature dot products incrementally (the dot is
/// bilinear in the member tags), and the balance phases keep per-cluster
/// dense block-count arrays instead.
struct Cluster {
  std::vector<std::uint32_t> GroupIds;
  std::uint64_t Size = 0;

  void addGroup(std::uint32_t Id, const IterationGroup &G) {
    GroupIds.push_back(Id);
    Size += G.size();
  }
};

/// One nonzero entry of a cluster's affinity row.
struct Affinity {
  std::uint32_t Peer;
  std::uint64_t Dot;
};

/// Merge-heap entry, invalidated lazily through per-cluster versions.
/// Zero-affinity candidates carry Dot = 0 and an adjacent pair A < B.
struct MergeCandidate {
  std::uint64_t Dot;
  std::uint64_t Size; // combined iteration count
  std::uint32_t A, B;
  std::uint32_t VerA, VerB;
};

/// The heap order: true when \p L merges after \p R. Dot descending,
/// combined size ascending, then A and B ascending: a total order on
/// pairs, so no valid entry ties with another.
bool mergesAfter(const MergeCandidate &L, const MergeCandidate &R) {
  if (L.Dot != R.Dot)
    return L.Dot < R.Dot;
  if (L.Size != R.Size)
    return L.Size > R.Size;
  if (L.A != R.A)
    return L.A > R.A;
  return L.B > R.B;
}

/// State of one mergeByAffinity call. Time and memory grow with the
/// nonzero-affinity pairs (plus the cluster and block counts), not N^2.
class AffinityMerger {
  std::vector<std::vector<std::uint32_t>> Members;
  std::vector<std::uint64_t> Size;
  std::vector<std::uint32_t> Version;
  std::vector<bool> Alive;
  /// Per cluster, its nonzero dots sorted by peer id.
  std::vector<std::vector<Affinity>> Rows;
  std::vector<Affinity> Scratch;
  /// Alive pairs with nonzero dot; each has exactly one valid heap entry.
  std::uint64_t LivePairs = 0;
  std::vector<MergeCandidate> Heap;
  /// Neighbours in id order among alive clusters (zero-affinity phase).
  std::vector<std::uint32_t> Prev, Next;

public:
  AffinityMerger(const std::vector<IterationGroup> &Groups,
                 const std::vector<std::uint32_t> &GroupIds)
      : Members(GroupIds.size()), Size(GroupIds.size()),
        Version(GroupIds.size(), 0), Alive(GroupIds.size(), true),
        Rows(GroupIds.size()) {
    const std::uint32_t N = GroupIds.size();
    std::uint32_t NumBlockIds = 0;
    for (std::uint32_t I = 0; I != N; ++I) {
      const IterationGroup &G = Groups[GroupIds[I]];
      Members[I].push_back(GroupIds[I]);
      Size[I] = G.size();
      if (!G.Tag.empty())
        NumBlockIds = std::max(NumBlockIds, G.Tag.ids().back() + 1);
    }

    // Seed the rows from the inverted block -> cluster index: a block
    // held by c clusters contributes c(c-1)/2 unit products, but only
    // nonzero dots are stored. Cluster A accumulates its dots with every
    // higher id and mirrors them into those rows; A rises monotonically,
    // so every row comes out sorted.
    std::vector<std::vector<std::uint32_t>> Occ(NumBlockIds);
    for (std::uint32_t A = 0; A != N; ++A)
      for (std::uint32_t B : Groups[GroupIds[A]].Tag.ids())
        Occ[B].push_back(A);
    std::vector<std::uint32_t> Cursor(NumBlockIds, 0); // A's slot in Occ[B]
    std::vector<std::uint64_t> Acc(N, 0);
    std::vector<std::uint32_t> Touched;
    for (std::uint32_t A = 0; A != N; ++A) {
      for (std::uint32_t B : Groups[GroupIds[A]].Tag.ids()) {
        const std::vector<std::uint32_t> &Holders = Occ[B];
        for (std::size_t I = ++Cursor[B], E = Holders.size(); I != E; ++I)
          if (Acc[Holders[I]]++ == 0)
            Touched.push_back(Holders[I]);
      }
      std::sort(Touched.begin(), Touched.end());
      for (std::uint32_t P : Touched) {
        Rows[A].push_back({P, Acc[P]});
        Rows[P].push_back({A, Acc[P]});
        push(A, P, Acc[P]);
        Acc[P] = 0;
      }
      LivePairs += Touched.size();
      Touched.clear();
    }
    std::make_heap(Heap.begin(), Heap.end(), mergesAfter);
  }

  void run(unsigned K) {
    std::uint32_t AliveCount = Members.size();
    std::uint64_t ZeroMerges = 0;
    while (AliveCount > K) {
      MergeCandidate Top{};
      if (!popValid(Top)) {
        // No nonzero pair is left, and merging cannot create one.
        ZeroMerges = AliveCount - K;
        startZeroAffinityPhase();
        popValid(Top);
      }
      merge(Top.A, Top.B);
      --AliveCount;
      ++NumMerges;
    }
    // Bumped even when zero, so the counter sits beside clusterer.merges
    // in every run that merged.
    NumZeroAffinityMerges += ZeroMerges;
  }

  std::vector<std::vector<std::uint32_t>> takeClusters() {
    std::vector<std::vector<std::uint32_t>> Out;
    for (std::uint32_t I = 0, E = Members.size(); I != E; ++I)
      if (Alive[I])
        Out.push_back(std::move(Members[I]));
    return Out;
  }

private:
  /// Queues the pair (A, B) at the current sizes and versions (pushes
  /// onto the heap vector; the caller restores the heap property).
  void push(std::uint32_t A, std::uint32_t B, std::uint64_t Dot) {
    if (A > B)
      std::swap(A, B);
    Heap.push_back({Dot, Size[A] + Size[B], A, B, Version[A], Version[B]});
  }

  bool valid(const MergeCandidate &C) const {
    return Alive[C.A] && Alive[C.B] && Version[C.A] == C.VerA &&
           Version[C.B] == C.VerB;
  }

  /// Pops the best valid candidate into \p Top; false once none is left.
  bool popValid(MergeCandidate &Top) {
    while (!Heap.empty()) {
      std::pop_heap(Heap.begin(), Heap.end(), mergesAfter);
      Top = Heap.back();
      Heap.pop_back();
      if (valid(Top))
        return true;
    }
    return false;
  }

  /// Links the alive clusters in id order and queues every adjacent pair.
  void startZeroAffinityPhase() {
    const std::uint32_t N = Members.size();
    Prev.assign(N, UINT32_MAX);
    Next.assign(N, UINT32_MAX);
    std::uint32_t Last = UINT32_MAX;
    for (std::uint32_t I = 0; I != N; ++I) {
      if (!Alive[I])
        continue;
      if (Last != UINT32_MAX) {
        Next[Last] = I;
        Prev[I] = Last;
        push(Last, I, 0);
      }
      Last = I;
    }
    std::make_heap(Heap.begin(), Heap.end(), mergesAfter);
  }

  /// Merges B into A (A < B) and queues the survivor's new candidates.
  void merge(std::uint32_t A, std::uint32_t B) {
    Members[A].insert(Members[A].end(), Members[B].begin(), Members[B].end());
    std::vector<std::uint32_t>().swap(Members[B]);
    Size[A] += Size[B];
    Alive[B] = false;
    ++Version[A];

    if (!Prev.empty()) {
      // Zero-affinity phase: B was A's right neighbour.
      Next[A] = Next[B];
      if (Next[B] != UINT32_MAX)
        Prev[Next[B]] = A;
      if (Prev[A] != UINT32_MAX)
        pushHeap(Prev[A], A, 0);
      if (Next[A] != UINT32_MAX)
        pushHeap(A, Next[A], 0);
      return;
    }

    // dot(A+B, X) = dot(A, X) + dot(B, X): fold B's row into A's, and
    // retarget every row that named B.
    std::vector<Affinity> &RowA = Rows[A];
    std::vector<Affinity> &RowB = Rows[B];
    const std::uint64_t OldEntries = RowA.size() + RowB.size();
    bool SharedAB = false; // (A, B) sits in both rows
    Scratch.clear();
    auto I = RowA.begin(), IE = RowA.end();
    auto J = RowB.begin(), JE = RowB.end();
    while (I != IE || J != JE) {
      Affinity Entry;
      if (J == JE || (I != IE && I->Peer < J->Peer)) {
        Entry = *I++;
      } else if (I == IE || J->Peer < I->Peer) {
        Entry = *J++;
      } else {
        Entry = {I->Peer, I->Dot + J->Dot};
        ++I;
        ++J;
      }
      if (Entry.Peer == A)
        SharedAB = true;
      else if (Entry.Peer != B)
        Scratch.push_back(Entry);
    }
    for (const Affinity &E : RowB)
      if (E.Peer != A)
        retarget(Rows[E.Peer], A, B, E.Dot);
    RowA.swap(Scratch);
    std::vector<Affinity>().swap(RowB);
    LivePairs = LivePairs + SharedAB + RowA.size() - OldEntries;

    for (const Affinity &E : RowA)
      pushHeap(A, E.Peer, E.Dot);
    // Stale entries pile up when a cluster with many neighbours keeps
    // merging; dropping them keeps the heap O(live pairs + N).
    if (Heap.size() > 2 * LivePairs + Members.size()) {
      Heap.erase(std::remove_if(Heap.begin(), Heap.end(),
                                [&](const MergeCandidate &C) {
                                  return !valid(C);
                                }),
                 Heap.end());
      std::make_heap(Heap.begin(), Heap.end(), mergesAfter);
    }
  }

  void pushHeap(std::uint32_t A, std::uint32_t B, std::uint64_t Dot) {
    push(A, B, Dot);
    std::push_heap(Heap.begin(), Heap.end(), mergesAfter);
  }

  /// In a row that holds B, moves B's dot onto A (A < B).
  static void retarget(std::vector<Affinity> &Row, std::uint32_t A,
                       std::uint32_t B, std::uint64_t Dot) {
    auto ByPeer = [](const Affinity &E, std::uint32_t P) {
      return E.Peer < P;
    };
    auto PosB = std::lower_bound(Row.begin(), Row.end(), B, ByPeer);
    assert(PosB != Row.end() && PosB->Peer == B && "row lost its peer");
    auto PosA = std::lower_bound(Row.begin(), PosB, A, ByPeer);
    if (PosA != PosB && PosA->Peer == A) {
      PosA->Dot += Dot;
      Row.erase(PosB);
      return;
    }
    std::rotate(PosA, PosB, PosB + 1);
    *PosA = {A, Dot};
  }
};

class ClustererImpl {
  std::vector<IterationGroup> &Groups;
  const CacheTopology &Topo;
  const double Threshold;
  ClusteringResult &Result;
  std::uint32_t NumBlockIds = 0;

public:
  ClustererImpl(std::vector<IterationGroup> &Groups, const CacheTopology &Topo,
                double Threshold, ClusteringResult &Result)
      : Groups(Groups), Topo(Topo), Threshold(Threshold), Result(Result) {}

  void run() {
    // Splits reuse their parent's tag, so the id space is fixed up front.
    for (const IterationGroup &G : Groups)
      if (!G.Tag.empty())
        NumBlockIds = std::max(NumBlockIds, G.Tag.ids().back() + 1);
    std::vector<std::uint32_t> All(Groups.size());
    for (std::uint32_t I = 0, E = Groups.size(); I != E; ++I)
      All[I] = I;
    clusterNode(Topo.rootId(), std::move(All));
  }

private:
  /// Recursively distributes \p GroupIds over the subtree rooted at
  /// \p NodeId.
  void clusterNode(unsigned NodeId, std::vector<std::uint32_t> GroupIds) {
    const CacheTopology::Node &N = Topo.node(NodeId);
    if (N.Children.empty()) {
      assert(N.Core >= 0 && "leaf cache without a core");
      Result.CoreGroups[static_cast<unsigned>(N.Core)] = std::move(GroupIds);
      return;
    }
    if (N.Children.size() == 1) {
      clusterNode(N.Children[0], std::move(GroupIds));
      return;
    }

    unsigned K = N.Children.size();
    std::vector<Cluster> Clusters = partition(GroupIds, K);

    // Per-child iteration targets: this node's total split proportionally
    // to the cores each child serves (globally ideal when the parent level
    // balanced perfectly, and always feasible). Match bigger clusters to
    // bigger-capacity children before balancing. Both sorts are stable,
    // so ties keep index order whatever the library's sort does.
    std::uint64_t NodeTotal = 0;
    for (const Cluster &C : Clusters)
      NodeTotal += C.Size;
    double PerCore = static_cast<double>(NodeTotal) / N.Cores.size();
    std::vector<double> Target(K);
    std::vector<unsigned> ChildOrder(K);
    for (unsigned C = 0; C != K; ++C)
      ChildOrder[C] = C;
    std::stable_sort(ChildOrder.begin(), ChildOrder.end(),
                     [&](unsigned A, unsigned B) {
                       return Topo.node(N.Children[A]).Cores.size() >
                              Topo.node(N.Children[B]).Cores.size();
                     });
    std::vector<unsigned> ClusterOrder(K);
    for (unsigned C = 0; C != K; ++C)
      ClusterOrder[C] = C;
    std::stable_sort(ClusterOrder.begin(), ClusterOrder.end(),
                     [&](unsigned A, unsigned B) {
                       return Clusters[A].Size > Clusters[B].Size;
                     });
    std::vector<Cluster> Ordered(K);
    std::vector<unsigned> ChildOfCluster(K);
    for (unsigned R = 0; R != K; ++R) {
      Ordered[R] = std::move(Clusters[ClusterOrder[R]]);
      ChildOfCluster[R] = ChildOrder[R];
      Target[R] =
          PerCore * Topo.node(N.Children[ChildOrder[R]]).Cores.size();
    }
    Clusters = std::move(Ordered);

    // Dense per-cluster block counts (the signature, scatter-stored):
    // evictionScore reads counts at a tag's blocks in O(|tag|) and group
    // moves update both sides in O(|tag|), where the sparse SharingVector
    // cost a full merge-join per score and a signature rebuild per move.
    std::vector<std::vector<std::uint32_t>> Counts(K);
    for (unsigned C = 0; C != K; ++C) {
      Counts[C].assign(NumBlockIds, 0);
      for (std::uint32_t Id : Clusters[C].GroupIds)
        for (std::uint32_t B : Groups[Id].Tag.ids())
          ++Counts[C][B];
    }
    loadBalance(Clusters, Target, Counts);
    refineBalance(Clusters, Target, Counts);
    for (unsigned C = 0; C != K; ++C)
      clusterNode(N.Children[ChildOfCluster[C]],
                  std::move(Clusters[C].GroupIds));
  }

  /// Splits \p GroupIds into exactly \p K clusters by agglomerative
  /// max-affinity merging (splitting when there are too few).
  std::vector<Cluster> partition(const std::vector<std::uint32_t> &GroupIds,
                                 unsigned K) {
    std::vector<Cluster> Clusters;
    for (std::vector<std::uint32_t> &Ids :
         mergeByAffinity(Groups, GroupIds, K)) {
      Cluster C;
      for (std::uint32_t Id : Ids)
        C.Size += Groups[Id].size();
      C.GroupIds = std::move(Ids);
      Clusters.push_back(std::move(C));
    }
    while (Clusters.size() < K)
      splitLargest(Clusters);
    return Clusters;
  }

  /// Adds one cluster by splitting the largest existing one. A multi-group
  /// cluster is bipartitioned greedily by size; a single-group cluster has
  /// its group's iterations split in half.
  void splitLargest(std::vector<Cluster> &Clusters) {
    if (Clusters.empty()) {
      Clusters.emplace_back(); // no work at all: empty cluster
      return;
    }
    std::size_t Largest = 0;
    for (std::size_t I = 1; I != Clusters.size(); ++I)
      if (Clusters[I].Size > Clusters[Largest].Size)
        Largest = I;

    Cluster &Src = Clusters[Largest];
    Cluster NewCluster;
    ++NumClusterSplits;
    if (Src.GroupIds.size() >= 2) {
      // Greedy size bipartition: place groups (largest first, equal sizes
      // in member order) into the lighter side.
      std::vector<std::uint32_t> Ids = std::move(Src.GroupIds);
      std::stable_sort(Ids.begin(), Ids.end(),
                       [&](std::uint32_t A, std::uint32_t B) {
                         return Groups[A].size() > Groups[B].size();
                       });
      Cluster SideA, SideB;
      for (std::uint32_t Id : Ids) {
        Cluster &Side = SideA.Size <= SideB.Size ? SideA : SideB;
        Side.addGroup(Id, Groups[Id]);
      }
      Src = std::move(SideA);
      NewCluster = std::move(SideB);
    } else if (Src.GroupIds.size() == 1 &&
               Groups[Src.GroupIds[0]].size() >= 2) {
      std::uint32_t ParentId = Src.GroupIds[0];
      std::uint32_t Tail = Groups[ParentId].size() / 2;
      std::uint32_t NewId = Groups.size();
      Groups.push_back(Groups[ParentId].splitTail(Tail));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      // Rebuild both clusters' cached state.
      Src = Cluster();
      Src.addGroup(ParentId, Groups[ParentId]);
      NewCluster.addGroup(NewId, Groups[NewId]);
    }
    // else: nothing splittable; add an empty cluster (idle core).
    Clusters.push_back(std::move(NewCluster));
  }

  /// Greedy load balancing within \p Clusters (Figure 6's second phase).
  /// \p Target holds each cluster's ideal iteration count; the balance
  /// threshold bounds the tolerated deviation from it.
  void loadBalance(std::vector<Cluster> &Clusters,
                   const std::vector<double> &Target,
                   std::vector<std::vector<std::uint32_t>> &Counts) {
    const unsigned K = Clusters.size();
    if (K < 2)
      return;
    assert(Target.size() == K && "one target per cluster");
    std::vector<std::uint64_t> Up(K), Low(K);
    for (unsigned I = 0; I != K; ++I) {
      Up[I] = static_cast<std::uint64_t>(
          std::ceil(Target[I] * (1.0 + Threshold)));
      Low[I] = static_cast<std::uint64_t>(
          std::floor(Target[I] * (1.0 - Threshold)));
    }

    // Termination guard: every step strictly reduces the donor's excess.
    // Affinity-first merging can produce one giant cluster (sharing chains
    // snowball), so the balancer may need to relocate a large fraction of
    // all groups; budget accordingly.
    std::size_t TotalGroups = 0;
    for (const Cluster &C : Clusters)
      TotalGroups += C.GroupIds.size();
    std::uint64_t StepsLeft = 4 * TotalGroups + 64;
    while (StepsLeft-- > 0) {
      // Figure 6 stops when *all* clusters are inside [Low, Up]: both a
      // cluster above its upper limit and one starved below its lower
      // limit keep the balancer running. Work always flows from the
      // largest surplus to the largest deficit.
      std::size_t Donor = SIZE_MAX;
      double DonorExcess = 0.0;
      bool Violation = false;
      for (std::size_t I = 0; I != K; ++I) {
        double Delta = static_cast<double>(Clusters[I].Size) - Target[I];
        if (Delta > DonorExcess) {
          Donor = I;
          DonorExcess = Delta;
        }
        if (Clusters[I].Size > Up[I] || Clusters[I].Size < Low[I])
          Violation = true;
      }
      if (!Violation || Donor == SIZE_MAX)
        break; // everyone within the balance threshold

      // Recipient: fill the deepest-below-target cluster toward its target
      // first; once no one is below target, spill toward the roomiest
      // upper limit. Filling to target (not to Up) first keeps the global
      // deficit from piling up on a few starved clusters.
      std::size_t Recipient = SIZE_MAX;
      double BestDeficit = 0.0;
      std::uint64_t BestRoom = 0;
      for (std::size_t I = 0; I != K; ++I) {
        if (I == Donor)
          continue;
        double Deficit =
            Target[I] - static_cast<double>(Clusters[I].Size);
        std::uint64_t RoomToUp =
            Up[I] > Clusters[I].Size ? Up[I] - Clusters[I].Size : 0;
        if (Deficit > BestDeficit) {
          Recipient = I;
          BestDeficit = Deficit;
          BestRoom = RoomToUp;
        } else if (BestDeficit <= 0.0 && RoomToUp > BestRoom) {
          Recipient = I;
          BestRoom = RoomToUp;
        }
      }
      if (Recipient == SIZE_MAX || BestRoom == 0)
        break; // nowhere to put the excess
      std::uint64_t Desired =
          BestDeficit > 0.0
              ? static_cast<std::uint64_t>(
                    std::min(DonorExcess, BestDeficit))
              : std::min(static_cast<std::uint64_t>(DonorExcess), BestRoom);
      // A fractional target deficit floors to zero; spill toward the upper
      // limit instead so an over-Up donor always makes progress.
      if (Desired == 0 && Clusters[Donor].Size > Up[Donor])
        Desired = std::min(static_cast<std::uint64_t>(DonorExcess), BestRoom);
      if (Desired == 0)
        break;

      // Whole-group eviction: pick the group with max affinity to the
      // recipient among those that roughly fit the transfer (never beyond
      // the recipient's hard cap, never starving the donor below Low).
      Cluster &D = Clusters[Donor];
      Cluster &R = Clusters[Recipient];
      std::uint64_t MaxMove = std::min<std::uint64_t>(Desired, BestRoom);
      std::size_t BestIdx = SIZE_MAX;
      std::int64_t BestScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() > MaxMove || D.Size - G.size() < Low[Donor])
          continue;
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (BestIdx == SIZE_MAX || Score > BestScore) {
          BestIdx = GI;
          BestScore = Score;
        }
      }

      if (BestIdx != SIZE_MAX) {
        std::uint32_t Id = D.GroupIds[BestIdx];
        D.GroupIds.erase(D.GroupIds.begin() +
                         static_cast<std::ptrdiff_t>(BestIdx));
        D.Size -= Groups[Id].size();
        removeTag(Counts[Donor], Groups[Id].Tag);
        R.addGroup(Id, Groups[Id]);
        addTag(Counts[Recipient], Groups[Id].Tag);
        ++NumEvictions;
        continue;
      }

      // No whole group fits: split the max-affinity group so that exactly
      // the desired amount moves.
      std::size_t SplitIdx = SIZE_MAX;
      std::int64_t SplitScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() <= MaxMove)
          continue; // must leave a nonempty head behind
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (SplitIdx == SIZE_MAX || Score > SplitScore) {
          SplitIdx = GI;
          SplitScore = Score;
        }
      }
      if (SplitIdx == SIZE_MAX)
        break; // cannot improve further
      std::uint32_t ParentId = D.GroupIds[SplitIdx];
      std::uint32_t NewId = Groups.size();
      Groups.push_back(
          Groups[ParentId].splitTail(static_cast<std::uint32_t>(MaxMove)));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      D.Size -= MaxMove;
      R.addGroup(NewId, Groups[NewId]);
      addTag(Counts[Recipient], Groups[NewId].Tag);
      ++NumEvictions;
    }
  }

  /// Whole-group refinement after the threshold-bounded phase: keep
  /// relocating groups from the largest-surplus cluster to the
  /// largest-deficit one while each move strictly shrinks the pair's worst
  /// deviation. Never splits; can only tighten the balance the threshold
  /// already allows, which matters because the finishing time of the
  /// slowest core tracks the *maximum* surplus.
  void refineBalance(std::vector<Cluster> &Clusters,
                     const std::vector<double> &Target,
                     std::vector<std::vector<std::uint32_t>> &Counts) {
    const unsigned K = Clusters.size();
    if (K < 2)
      return;
    std::size_t TotalGroups = 0;
    for (const Cluster &C : Clusters)
      TotalGroups += C.GroupIds.size();
    std::uint64_t StepsLeft = 2 * TotalGroups + 32;

    while (StepsLeft-- > 0) {
      std::size_t Donor = SIZE_MAX, Recipient = SIZE_MAX;
      double MaxDelta = 0.0, MinDelta = 0.0;
      for (std::size_t I = 0; I != K; ++I) {
        double Delta = static_cast<double>(Clusters[I].Size) - Target[I];
        if (Donor == SIZE_MAX || Delta > MaxDelta) {
          Donor = I;
          MaxDelta = Delta;
        }
        if (Recipient == SIZE_MAX || Delta < MinDelta) {
          Recipient = I;
          MinDelta = Delta;
        }
      }
      if (Donor == Recipient || MaxDelta <= 0.0)
        break;

      Cluster &D = Clusters[Donor];
      Cluster &R = Clusters[Recipient];
      double WorstBefore = std::max(MaxDelta, -MinDelta);
      std::size_t BestIdx = SIZE_MAX;
      std::int64_t BestScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        double S = G.size();
        double WorstAfter =
            std::max(std::abs(MaxDelta - S), std::abs(MinDelta + S));
        if (WorstAfter + 0.5 >= WorstBefore)
          continue; // does not strictly improve the pair
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (BestIdx == SIZE_MAX || Score > BestScore) {
          BestIdx = GI;
          BestScore = Score;
        }
      }
      if (BestIdx != SIZE_MAX) {
        std::uint32_t Id = D.GroupIds[BestIdx];
        D.GroupIds.erase(D.GroupIds.begin() +
                         static_cast<std::ptrdiff_t>(BestIdx));
        D.Size -= Groups[Id].size();
        removeTag(Counts[Donor], Groups[Id].Tag);
        R.addGroup(Id, Groups[Id]);
        addTag(Counts[Recipient], Groups[Id].Tag);
        ++NumEvictions;
        continue;
      }

      // No whole group improves the pair: coarse groups cap how tight the
      // balance can get, so split off exactly the surplus/deficit overlap
      // when it is worth a new group.
      constexpr std::uint64_t MinSplitIterations = 16;
      double Deficit = -MinDelta;
      std::uint64_t Desired = static_cast<std::uint64_t>(
          Deficit > 0.0 ? std::min(MaxDelta, Deficit) : MaxDelta);
      if (Desired < MinSplitIterations)
        break;
      std::size_t SplitIdx = SIZE_MAX;
      std::int64_t SplitScore = 0;
      for (std::size_t GI = 0; GI != D.GroupIds.size(); ++GI) {
        const IterationGroup &G = Groups[D.GroupIds[GI]];
        if (G.size() <= Desired)
          continue;
        std::int64_t Score = evictionScore(G, Counts[Recipient], Counts[Donor]);
        if (SplitIdx == SIZE_MAX || Score > SplitScore) {
          SplitIdx = GI;
          SplitScore = Score;
        }
      }
      if (SplitIdx == SIZE_MAX)
        break;
      std::uint32_t ParentId = D.GroupIds[SplitIdx];
      std::uint32_t NewId = Groups.size();
      Groups.push_back(
          Groups[ParentId].splitTail(static_cast<std::uint32_t>(Desired)));
      Result.Splits.emplace_back(ParentId, NewId);
      ++NumGroupSplits;
      D.Size -= Desired;
      R.addGroup(NewId, Groups[NewId]);
      addTag(Counts[Recipient], Groups[NewId].Tag);
      ++NumEvictions;
    }
  }

  /// Eviction preference: gain affinity with the recipient, lose as
  /// little as possible with the donor. A pure max-dot-to-recipient rule
  /// degenerates to arbitrary picks while the recipient's signature is
  /// still empty, scattering contiguous iteration runs across domains.
  std::int64_t evictionScore(const IterationGroup &G,
                             const std::vector<std::uint32_t> &RCounts,
                             const std::vector<std::uint32_t> &DCounts) const {
    std::int64_t ToRecipient = 0, ToDonor = 0;
    for (std::uint32_t B : G.Tag.ids()) {
      ToRecipient += RCounts[B];
      ToDonor += DCounts[B];
    }
    return ToRecipient - ToDonor;
  }

  static void addTag(std::vector<std::uint32_t> &C, const BlockSet &Tag) {
    for (std::uint32_t B : Tag.ids())
      ++C[B];
  }

  static void removeTag(std::vector<std::uint32_t> &C, const BlockSet &Tag) {
    for (std::uint32_t B : Tag.ids()) {
      assert(C[B] > 0 && "count underflow");
      --C[B];
    }
  }
};

} // namespace

ClusteringResult cta::clusterForTopology(std::vector<IterationGroup> Groups,
                                         const CacheTopology &Topo,
                                         double BalanceThreshold) {
  if (!Topo.finalized())
    reportFatalError("clusterForTopology needs a finalized topology");
  if (BalanceThreshold < 0.0)
    reportFatalError("balance threshold must be non-negative");

  ClusteringResult Result;
  Result.CoreGroups.resize(Topo.numCores());
  Result.Groups = std::move(Groups);
  ClustererImpl Impl(Result.Groups, Topo, BalanceThreshold, Result);
  Impl.run();
  return Result;
}

std::vector<std::vector<std::uint32_t>>
cta::mergeByAffinity(const std::vector<IterationGroup> &Groups,
                     const std::vector<std::uint32_t> &GroupIds, unsigned K) {
  AffinityMerger Merger(Groups, GroupIds);
  Merger.run(std::max(K, 1u));
  return Merger.takeClusters();
}
