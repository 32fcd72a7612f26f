// Unit tests for the Tarjan SCC utility (src/core/scc.h): exact
// component structure on handcrafted graphs, the reverse-topological
// numbering contract the reliance scheduler relies on, agreement with a brute-force mutual-reachability oracle on random
// graphs, and iterative-traversal depth safety on a pathological chain.
#include "src/core/scc.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace datalogo {
namespace {

std::vector<int> RunScc(const std::vector<std::vector<int>>& adj,
                        int* num_comps = nullptr) {
  Tarjan tarjan(adj);
  tarjan.Run();
  if (num_comps != nullptr) *num_comps = tarjan.num_components();
  return tarjan.components();
}

TEST(Scc, EmptyAndSingletonGraphs) {
  int nc = -1;
  EXPECT_TRUE(RunScc({}, &nc).empty());
  EXPECT_EQ(nc, 0);

  std::vector<int> comp = RunScc({{}}, &nc);
  EXPECT_EQ(nc, 1);
  EXPECT_EQ(comp[0], 0);

  // A self-loop is still a single singleton component.
  comp = RunScc({{0}}, &nc);
  EXPECT_EQ(nc, 1);
  EXPECT_EQ(comp[0], 0);
}

TEST(Scc, ChainIsReverseTopologicallyNumbered) {
  // 0 → 1 → 2 → 3: four components; every edge u → v must satisfy
  // comp(v) < comp(u), so decreasing component id walks sources first.
  std::vector<std::vector<int>> adj = {{1}, {2}, {3}, {}};
  int nc = -1;
  std::vector<int> comp = RunScc(adj, &nc);
  EXPECT_EQ(nc, 4);
  EXPECT_LT(comp[1], comp[0]);
  EXPECT_LT(comp[2], comp[1]);
  EXPECT_LT(comp[3], comp[2]);
}

TEST(Scc, CycleCollapsesToOneComponent) {
  std::vector<std::vector<int>> adj = {{1}, {2}, {0}};
  int nc = -1;
  std::vector<int> comp = RunScc(adj, &nc);
  EXPECT_EQ(nc, 1);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
}

TEST(Scc, TwoCyclesBridgedByAnEdge) {
  // {0,1} → {2,3}: two components, the downstream one numbered lower.
  std::vector<std::vector<int>> adj = {{1}, {0, 2}, {3}, {2}};
  int nc = -1;
  std::vector<int> comp = RunScc(adj, &nc);
  EXPECT_EQ(nc, 2);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_LT(comp[2], comp[0]);
}

TEST(Scc, DiamondCondensation) {
  // 0 → {1, 2} → 3 with 1, 2 incomparable: 4 components; both middle
  // components sit strictly between the sink and the source.
  std::vector<std::vector<int>> adj = {{1, 2}, {3}, {3}, {}};
  int nc = -1;
  std::vector<int> comp = RunScc(adj, &nc);
  EXPECT_EQ(nc, 4);
  EXPECT_LT(comp[3], comp[1]);
  EXPECT_LT(comp[3], comp[2]);
  EXPECT_LT(comp[1], comp[0]);
  EXPECT_LT(comp[2], comp[0]);
}

TEST(Scc, MatchesMutualReachabilityOracleOnRandomGraphs) {
  std::mt19937_64 rng(0x5CC0u);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 2 + static_cast<int>(rng() % 12);
    std::vector<std::vector<int>> adj(n);
    // Boolean transitive closure with self-reachability for the oracle.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (int v = 0; v < n; ++v) {
      const int degree = static_cast<int>(rng() % (n + 1));
      for (int e = 0; e < degree; ++e) {
        int w = static_cast<int>(rng() % n);
        adj[v].push_back(w);
        reach[v][w] = true;
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (reach[i][k] && reach[k][j]) reach[i][j] = true;
        }
      }
    }
    int nc = -1;
    std::vector<int> comp = RunScc(adj, &nc);
    for (int u = 0; u < n; ++u) {
      for (int v = 0; v < n; ++v) {
        if (u == v) continue;
        const bool mutual = reach[u][v] && reach[v][u];
        EXPECT_EQ(comp[u] == comp[v], mutual)
            << "trial " << trial << " u=" << u << " v=" << v;
      }
    }
    // Numbering contract: cross-component edges point at lower ids.
    for (int u = 0; u < n; ++u) {
      for (int w : adj[u]) {
        if (comp[u] != comp[w]) {
          EXPECT_LT(comp[w], comp[u]) << "trial " << trial;
        }
      }
    }
    EXPECT_EQ(nc, 1 + *std::max_element(comp.begin(), comp.end()));
  }
}

TEST(Scc, DeepChainDoesNotOverflowTheStack) {
  // The iterative traversal must survive a DFS path as long as the
  // input; a recursive Visit would blow the call stack here.
  const int n = 200000;
  std::vector<std::vector<int>> adj(n);
  for (int v = 0; v + 1 < n; ++v) adj[v].push_back(v + 1);
  int nc = -1;
  std::vector<int> comp = RunScc(adj, &nc);
  EXPECT_EQ(nc, n);
  EXPECT_EQ(comp[n - 1], 0);
  EXPECT_EQ(comp[0], n - 1);
}

}  // namespace
}  // namespace datalogo
