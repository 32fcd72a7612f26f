// Cross-check for the allocation-free join kernel: Naive and SemiNaive
// must produce the same fixpoints AND the same join-work counters as the
// seed's vector-tuple / recursive-lambda engine. The work goldens below
// were recorded from the seed engine on deterministic (RNG-free) chain
// and grid workloads; the compiled flat join program is required to visit
// exactly the same generator entries in the same multiplicity. Fixpoints
// are also checked against the grounded semantics (tests/grounded_oracle.h),
// which is also the reference for the per-carrier programs at the end:
// every carrier's ⊗/⊕ runs per row inside the one batched join kernel.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/datalogo.h"
#include "src/semiring/provenance.h"
#include "tests/grounded_oracle.h"

namespace datalogo {
namespace {

constexpr const char* kLinearTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

constexpr const char* kQuadraticTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * T(Z,Y).
)";

constexpr const char* kSssp = R"(
  edb E/2.
  idb L/1.
  L(X) :- [X = v0] ; L(Z) * E(Z, X).
)";

Graph ChainGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  return g;
}

/// Runs Naive and SemiNaive, checks both fixpoints equal the grounded
/// least fixpoint, and checks the work counters hit the seed goldens.
template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectSeedBehaviour(const char* text, const Graph& g, auto&& lift,
                         uint64_t golden_naive_work,
                         uint64_t golden_semi_work) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));

  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  std::optional<IdbInstance<P>> grounded = GroundedFixpoint<P>(prog, edb);

  ASSERT_TRUE(naive.converged);
  ASSERT_TRUE(semi.converged);
  ASSERT_TRUE(grounded.has_value());
  EXPECT_TRUE(naive.idb.Equals(*grounded));
  EXPECT_TRUE(semi.idb.Equals(*grounded));

  EXPECT_EQ(naive.work, golden_naive_work);
  EXPECT_EQ(semi.work, golden_semi_work);
}

TEST(EngineEquivalence, BooleanLinearTcChain80) {
  ExpectSeedBehaviour<BoolS>(kLinearTc, ChainGraph(80),
                             [](const Edge&) { return true; },
                             /*golden_naive_work=*/338120,
                             /*golden_semi_work=*/6320);
}

TEST(EngineEquivalence, BooleanQuadraticTcChain80) {
  ExpectSeedBehaviour<BoolS>(kQuadraticTc, ChainGraph(80),
                             [](const Edge&) { return true; },
                             /*golden_naive_work=*/244823,
                             /*golden_semi_work=*/95925);
}

TEST(EngineEquivalence, TropicalSsspChain80) {
  ExpectSeedBehaviour<TropS>(kSssp, ChainGraph(80),
                             [](const Edge& e) { return e.weight; },
                             /*golden_naive_work=*/6479,
                             /*golden_semi_work=*/159);
}

TEST(EngineEquivalence, TropicalApspGrid8x8) {
  ExpectSeedBehaviour<TropS>(kLinearTc, GridGraph(8, 8),
                             [](const Edge& e) { return e.weight; },
                             /*golden_naive_work=*/33936,
                             /*golden_semi_work=*/3248);
}

/// Evaluates `text` over carrier P on the 8×8 grid (a DAG, so ℕ and R+
/// converge) and checks Naive — and SemiNaive where P has ⊖ — against
/// the grounded least fixpoint, with every visited entry decoded by the
/// batched join kernel. Returns the last run's work and fixpoint size
/// for callers that compare join traces.
struct GridRun {
  uint64_t work = 0;
  std::size_t support = 0;
};

template <NaturallyOrderedSemiring P>
GridRun ExpectGroundedOnGrid(const char* text, auto&& lift) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  Graph g = GridGraph(8, 8);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  std::optional<IdbInstance<P>> grounded = GroundedFixpoint<P>(prog, edb);
  EXPECT_TRUE(grounded.has_value());
  if (!grounded.has_value()) return {};

  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(naive.idb.Equals(*grounded));
  GridRun last{naive.work, naive.idb.TotalSupport()};
  uint64_t total = naive.work;
  if constexpr (CompleteDistributiveDioid<P>) {
    auto semi = engine.SemiNaive(1 << 20);
    EXPECT_TRUE(semi.converged);
    EXPECT_TRUE(semi.idb.Equals(*grounded));
    last = {semi.work, semi.idb.TotalSupport()};
    total += semi.work;
  }
  EXPECT_EQ(engine.join_batched_rows(), total);
  return last;
}

TEST(EngineEquivalence, TropNatHopCountsGrid8x8) {
  ExpectGroundedOnGrid<TropNatS>(kLinearTc,
                                 [](const Edge&) { return uint64_t{1}; });
}

TEST(EngineEquivalence, NatPathCountingGrid8x8) {
  // ℕ has no ⊖: Naive only. The grid is a DAG, so path counts are finite.
  ExpectGroundedOnGrid<NatS>(kLinearTc,
                             [](const Edge&) { return uint64_t{1}; });
}

TEST(EngineEquivalence, RealPlusPathWeightsGrid8x8) {
  // R+ sums reassociate in general; with weight 0.5 every path product
  // and every sum on this grid is a dyadic rational well inside double
  // precision, so the engine's merge order and the grounded iteration's
  // must agree bit for bit.
  ExpectGroundedOnGrid<RealPlusS>(kLinearTc, [](const Edge&) { return 0.5; });
}

TEST(EngineEquivalence, GroundAndVariableResidualsGrid8x8) {
  // [Y != v0] compares an innermost-bound variable with a constant;
  // [Y != X] compares two variables. Both are re-grounded per emitted row.
  constexpr const char* kFiltered = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) * [Y != v0] ; T(X,Z) * E(Z,Y) * [Y != v0, Y != X].
  )";
  ExpectGroundedOnGrid<TropS>(kFiltered,
                              [](const Edge& e) { return e.weight; });
}

TEST(EngineEquivalence, AlwaysFalseDisjunctKeepsWorkTrace) {
  // A residual decided false at compile time ([v0 = v1]) makes the
  // disjunct dead: it must keep the work/probe trace of its join (the
  // innermost drain is skipped, not the descent) while emitting nothing
  // — the fixpoint equals the grounded one and the dead-free program's,
  // and the work exceeds the dead-free program's.
  constexpr const char* kDead = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y) * [v0 = v1].
  )";
  constexpr const char* kLive = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y).
  )";
  auto weight = [](const Edge& e) { return e.weight; };
  const GridRun dead = ExpectGroundedOnGrid<TropS>(kDead, weight);
  const GridRun live = ExpectGroundedOnGrid<TropS>(kLive, weight);
  EXPECT_EQ(dead.support, live.support);
  EXPECT_GT(dead.work, live.work);
}

TEST(EngineEquivalence, ProvenancePosBoolChain6) {
  // PosBool[X] provenance on a labeled chain: x_i tags edge (v_i, v_i+1).
  // The fixpoint for T(v0, v5) must be the single clause {x0..x4}, and
  // both engines must do the seed's exact join work.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  const int n = 6;
  Graph g = ChainGraph(n);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<PosBoolS> edb(prog);
  {
    int i = 0;
    for (const Edge& e : g.edges()) {
      edb.pops(prog.FindPredicate("E"))
          .Merge({ids[e.src], ids[e.dst]},
                 PosBoolS::Var("x" + std::to_string(i++)));
    }
  }
  Engine<PosBoolS> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  ASSERT_TRUE(naive.converged);
  ASSERT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));

  PosBoolS::Clause all;
  for (int i = 0; i < n - 1; ++i) all.insert("x" + std::to_string(i));
  EXPECT_EQ(naive.idb.idb(prog.FindPredicate("T")).Get({ids[0], ids[n - 1]}),
            PosBoolS::Value{all});

  EXPECT_EQ(naive.work, 125u);
  EXPECT_EQ(semi.work, 30u);
}

}  // namespace
}  // namespace datalogo
