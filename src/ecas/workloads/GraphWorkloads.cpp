//===-- ecas/workloads/GraphWorkloads.cpp - BFS, CC, SSSP -----------------===//
//
// Part of the ecas project, under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "ecas/workloads/GraphWorkloads.h"

#include "ecas/support/Assert.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace ecas;

GraphAlgoResult ecas::runBfsLevels(const RoadGraph &Graph, uint32_t Source) {
  ECAS_CHECK(Source < Graph.numNodes(), "BFS source out of range");
  GraphAlgoResult Result;
  const uint32_t Unvisited = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> Depth(Graph.numNodes(), Unvisited);
  std::vector<uint32_t> Frontier{Source};
  Depth[Source] = 0;
  uint64_t DepthSum = 0;
  uint32_t Level = 0;
  while (!Frontier.empty()) {
    Result.RoundSizes.push_back(static_cast<double>(Frontier.size()));
    std::vector<uint32_t> Next;
    Next.reserve(Frontier.size() * 2);
    for (uint32_t V : Frontier) {
      for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E) {
        uint32_t U = Graph.Targets[E];
        if (Depth[U] != Unvisited)
          continue;
        Depth[U] = Level + 1;
        DepthSum += Level + 1;
        Next.push_back(U);
      }
    }
    Frontier = std::move(Next);
    ++Level;
  }
  Result.Checksum = DepthSum;
  return Result;
}

GraphAlgoResult ecas::runConnectedComponents(const RoadGraph &Graph) {
  GraphAlgoResult Result;
  const uint32_t Nodes = Graph.numNodes();
  if (Nodes == 0)
    return Result;

  // Fixed-width in-neighbour table: row U lists the sources of U's
  // incoming edges; unused slots point at U itself, a no-op for the min.
  // Road networks are grids, so four slots always suffice.
  constexpr uint32_t Slots = 4;
  std::vector<uint32_t> InNeighbours(static_cast<size_t>(Nodes) * Slots);
  std::vector<uint8_t> Filled(Nodes, 0);
  for (uint32_t U = 0; U != Nodes; ++U)
    std::fill_n(&InNeighbours[static_cast<size_t>(U) * Slots], Slots, U);
  for (uint32_t V = 0; V != Nodes; ++V)
    for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E) {
      uint32_t U = Graph.Targets[E];
      ECAS_CHECK(Filled[U] < Slots, "CC supports at most 4 neighbours");
      InNeighbours[static_cast<size_t>(U) * Slots + Filled[U]++] = V;
    }

  // Nodes are evaluated in blocks of 64. A block's labels can only fall
  // in a round after a block feeding it (itself, or one holding an
  // in-neighbour of its nodes) changed in the previous round; Dependents
  // lists, for each block, the blocks it feeds.
  constexpr uint32_t BlockBits = 6;
  const uint32_t Blocks = ((Nodes - 1) >> BlockBits) + 1;
  std::vector<uint32_t> DependentOffsets{0};
  std::vector<uint32_t> Dependents;
  DependentOffsets.reserve(Blocks + 1);
  for (uint32_t B = 0; B != Blocks; ++B) {
    size_t First = Dependents.size();
    Dependents.push_back(B);
    uint32_t End = std::min(Nodes, (B + 1) << BlockBits);
    for (uint32_t V = B << BlockBits; V != End; ++V)
      for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E)
        Dependents.push_back(Graph.Targets[E] >> BlockBits);
    std::sort(Dependents.begin() + First, Dependents.end());
    Dependents.erase(std::unique(Dependents.begin() + First, Dependents.end()),
                     Dependents.end());
    DependentOffsets.push_back(static_cast<uint32_t>(Dependents.size()));
  }

  // Synchronous pull rounds (labels read from the previous round's
  // buffer), matching a GPU-style bulk-parallel kernel: asynchronous
  // in-place propagation would collapse the round count and with it the
  // invocation trace. After round k a label is the minimum id within
  // k+1 hops, so a neighbour that did not change last round cannot lower
  // it: pulling from every neighbour yields the same labels, and the same
  // per-round change counts, as pushing from the changed ones. A skipped
  // block did not change in the previous round either, so the stale
  // buffer already holds its labels.
  std::vector<uint32_t> Label(Nodes);
  for (uint32_t V = 0; V != Nodes; ++V)
    Label[V] = V;
  std::vector<uint32_t> Next = Label;
  std::vector<uint32_t> Dirty(Blocks);
  for (uint32_t B = 0; B != Blocks; ++B)
    Dirty[B] = B;
  std::vector<uint32_t> Active;
  std::vector<uint32_t> ActiveInRound(Blocks, 0);
  Result.RoundSizes.push_back(static_cast<double>(Nodes));
  for (uint32_t Round = 1;; ++Round) {
    Active.clear();
    for (uint32_t C : Dirty)
      for (uint32_t I = DependentOffsets[C]; I != DependentOffsets[C + 1];
           ++I) {
        uint32_t B = Dependents[I];
        if (ActiveInRound[B] != Round) {
          ActiveInRound[B] = Round;
          Active.push_back(B);
        }
      }
    Dirty.clear();
    uint64_t Changed = 0;
    for (uint32_t B : Active) {
      uint32_t End = std::min(Nodes, (B + 1) << BlockBits);
      uint32_t BlockChanged = 0;
      for (uint32_t V = B << BlockBits; V != End; ++V) {
        const uint32_t *In = &InNeighbours[static_cast<size_t>(V) * Slots];
        uint32_t Min = std::min(std::min(Label[V], Label[In[0]]),
                                std::min(std::min(Label[In[1]], Label[In[2]]),
                                         Label[In[3]]));
        Next[V] = Min;
        BlockChanged += Min != Label[V];
      }
      if (BlockChanged != 0) {
        Dirty.push_back(B);
        Changed += BlockChanged;
      }
    }
    if (Changed == 0)
      break;
    Result.RoundSizes.push_back(static_cast<double>(Changed));
    Label.swap(Next);
  }

  uint64_t LabelSum = 0;
  uint64_t Components = 0;
  for (uint32_t V = 0; V != Nodes; ++V) {
    LabelSum += Label[V];
    if (Label[V] == V)
      ++Components;
  }
  Result.Checksum = (Components << 32) + (LabelSum & 0xffffffffULL);
  return Result;
}

GraphAlgoResult ecas::runShortestPaths(const RoadGraph &Graph,
                                       uint32_t Source) {
  ECAS_CHECK(Source < Graph.numNodes(), "SSSP source out of range");
  GraphAlgoResult Result;
  const uint32_t Nodes = Graph.numNodes();
  const float Inf = std::numeric_limits<float>::infinity();
  std::vector<float> Dist(Nodes, Inf);
  std::vector<uint8_t> InNext(Nodes, 0);
  Dist[Source] = 0.0f;
  std::vector<uint32_t> Worklist{Source};

  // Synchronous relaxation rounds (see runConnectedComponents).
  std::vector<float> NextDist = Dist;
  while (!Worklist.empty()) {
    Result.RoundSizes.push_back(static_cast<double>(Worklist.size()));
    std::vector<uint32_t> Next;
    for (uint32_t V : Worklist) {
      float Base = Dist[V];
      for (uint32_t E = Graph.Offsets[V]; E != Graph.Offsets[V + 1]; ++E) {
        uint32_t U = Graph.Targets[E];
        float Cand = Base + Graph.Weights[E];
        if (Cand < NextDist[U]) {
          NextDist[U] = Cand;
          if (!InNext[U]) {
            InNext[U] = 1;
            Next.push_back(U);
          }
        }
      }
    }
    for (uint32_t U : Next) {
      InNext[U] = 0;
      Dist[U] = NextDist[U];
    }
    Worklist = std::move(Next);
  }

  uint64_t DistSum = 0;
  for (uint32_t V = 0; V != Nodes; ++V)
    if (Dist[V] < Inf)
      DistSum += static_cast<uint64_t>(Dist[V]);
  Result.Checksum = DistSum;
  return Result;
}

void ecas::graphDimensions(const WorkloadConfig &Config, uint32_t &Width,
                           uint32_t &Height) {
  // 875x875 at scale 1.0: corner-sourced BFS then has ~1.7k levels,
  // matching the W-USA invocation counts of Table 1.
  double Side = 875.0 * std::sqrt(std::max(Config.Scale, 1e-4));
  Width = Height = std::max<uint32_t>(8, static_cast<uint32_t>(Side));
}

namespace {

/// Converts per-round sizes into an invocation trace for \p Kernel,
/// scaling iteration counts so the totals match the W-USA magnitudes
/// (frontier *shape* is measured; magnitude is rescaled — documented in
/// DESIGN.md as trace scaling).
InvocationTrace buildTrace(const std::vector<double> &RoundSizes,
                           const KernelDesc &Kernel, double TargetTotal) {
  double Total = 0.0;
  for (double Size : RoundSizes)
    Total += Size;
  double Factor = Total > 0.0 ? TargetTotal / Total : 1.0;
  InvocationTrace Trace;
  Trace.reserve(RoundSizes.size());
  for (double Size : RoundSizes)
    Trace.push_back({Kernel, std::max(1.0, std::floor(Size * Factor))});
  return Trace;
}

} // namespace

Workload ecas::makeBfsWorkload(const WorkloadConfig &Config) {
  uint32_t Width, Height;
  graphDimensions(Config, Width, Height);
  RoadGraph Graph = makeRoadGraph(Width, Height, Config.Seed);
  GraphAlgoResult Algo = runBfsLevels(Graph, /*Source=*/0);

  KernelDesc Kernel;
  Kernel.Name = "bfs.expand";
  Kernel.CpuCyclesPerIter = 400.0;
  Kernel.GpuCyclesPerIter = 400.0;
  Kernel.BytesPerIter = 80.0;
  Kernel.LoadStoresPerIter = 8.0;
  Kernel.LlcMissRatio = 0.40;
  Kernel.InstrsPerIter = 220.0;
  Kernel.GpuEfficiency = 0.05;
  Kernel.CpuVectorizable = 0.0;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Breadth first search";
  W.Abbrev = "BFS";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = false;
  W.Trace = buildTrace(Algo.RoundSizes, Kernel,
                       6.2e6 * std::sqrt(Config.Scale));
  return W;
}

Workload ecas::makeCcWorkload(const WorkloadConfig &Config) {
  uint32_t Width, Height;
  graphDimensions(Config, Width, Height);
  RoadGraph Graph = makeRoadGraph(Width, Height, Config.Seed + 1);
  GraphAlgoResult Algo = runConnectedComponents(Graph);

  KernelDesc Kernel;
  Kernel.Name = "cc.propagate";
  Kernel.CpuCyclesPerIter = 450.0;
  Kernel.GpuCyclesPerIter = 450.0;
  Kernel.BytesPerIter = 88.0;
  Kernel.LoadStoresPerIter = 9.0;
  Kernel.LlcMissRatio = 0.42;
  Kernel.InstrsPerIter = 240.0;
  Kernel.GpuEfficiency = 0.05;
  Kernel.CpuVectorizable = 0.0;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Connected Component";
  W.Abbrev = "CC";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = false;
  W.Trace = buildTrace(Algo.RoundSizes, Kernel,
                       9.0e6 * std::sqrt(Config.Scale));
  return W;
}

Workload ecas::makeSsspWorkload(const WorkloadConfig &Config) {
  uint32_t Width, Height;
  graphDimensions(Config, Width, Height);
  RoadGraph Graph = makeRoadGraph(Width, Height, Config.Seed + 2);
  GraphAlgoResult Algo = runShortestPaths(Graph, /*Source=*/0);

  KernelDesc Kernel;
  Kernel.Name = "sssp.relax";
  Kernel.CpuCyclesPerIter = 500.0;
  Kernel.GpuCyclesPerIter = 500.0;
  Kernel.BytesPerIter = 96.0;
  Kernel.LoadStoresPerIter = 10.0;
  Kernel.LlcMissRatio = 0.45;
  Kernel.InstrsPerIter = 260.0;
  Kernel.GpuEfficiency = 0.05;
  Kernel.CpuVectorizable = 0.0;
  Kernel.withAutoId();

  Workload W;
  W.Name = "Shortest Path";
  W.Abbrev = "SP";
  W.Regular = false;
  W.ExpectedBound = Boundedness::Memory;
  W.ExpectedCpu = DurationClass::Short;
  W.ExpectedGpu = DurationClass::Short;
  W.OnTablet = false;
  W.Trace = buildTrace(Algo.RoundSizes, Kernel,
                       8.0e6 * std::sqrt(Config.Scale));
  return W;
}
