// Cross-check for the allocation-free join kernel: Naive and SemiNaive
// must reach the grounded least fixpoint (tests/grounded_oracle.h) on
// every carrier — each carrier's ⊗/⊕ runs per row inside the one batched
// join kernel — with every visited entry decoded by that kernel. The
// seed engine's `work` goldens on the chain and grid workloads, and their
// SemiNaive steps, are pinned in engine_index_test on both id layouts.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/datalogo.h"
#include "src/semiring/provenance.h"
#include "tests/grounded_oracle.h"
#include "tests/step_bound.h"

namespace datalogo {
namespace {

constexpr const char* kLinearTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

Graph ChainGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  return g;
}

/// Evaluates `text` over carrier P on the 8×8 grid (a DAG, so ℕ and R+
/// converge) and checks Naive and SemiNaive against the grounded least
/// fixpoint, with every visited entry decoded by the batched join kernel.
/// Returns SemiNaive's work and fixpoint size for callers that compare
/// join traces.
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
  ExpectStepBound(prog, naive, /*semi=*/false);
  auto semi = engine.SemiNaive(1 << 20);
  EXPECT_TRUE(semi.converged);
  EXPECT_TRUE(semi.idb.Equals(*grounded));
  ExpectStepBound(prog, semi, /*semi=*/true);
  EXPECT_EQ(engine.join_batched_rows(), naive.work + semi.work);
  return {semi.work, semi.idb.TotalSupport()};
}

TEST(EngineEquivalence, TropNatHopCountsGrid8x8) {
  ExpectGroundedOnGrid<TropNatS>(kLinearTc,
                                 [](const Edge&) { return uint64_t{1}; });
}

TEST(EngineEquivalence, NatPathCountingGrid8x8) {
  // ℕ has no ⊖: SemiNaive keeps each contribution whole (EmitRow). The
  // grid is a DAG, so path counts are finite.
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

/// The parity program of examples/data/parity_paths.dl: three reliance
/// groups (the Odd base rule, the Odd/Even step rules, the non-linear T
/// closure), with T reading both lower groups.
constexpr const char* kParity = R"(
  edb E/2.
  idb Odd/2.
  idb Even/2.
  idb T/2.
  Odd(X,Y) :- E(X,Y).
  Odd(X,Y) :- Even(X,Z) * E(Z,Y).
  Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  T(X,Y) :- Even(X,Y) ; Odd(X,Y) ; T(X,Z) * T(Z,Y).
)";

/// Transitive closure split into a base rule and a step rule: two
/// reliance groups (non-recursive, then recursive) sharing the head T.
constexpr const char* kBaseStepTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y).
  T(X,Y) :- T(X,Z) * E(Z,Y).
)";

TEST(EngineEquivalence, MultiGroupProgramsOnCarriersWithoutMinus) {
  // SemiNaive's group schedule on carriers with no ⊖: the later group's
  // seed reads what an earlier group already merged into T, so its δ
  // must be the fresh mass alone. Every value stays exact: ℕ path counts,
  // R+ sums of dyadic path weights, and ℕ[X] polynomials over a right
  // (r) and a down (d) step variable.
  auto step = [](const Edge& e) {
    return ProvPolyS::Var(e.dst == e.src + 1 ? "r" : "d");
  };
  for (const char* text : {kParity, kBaseStepTc}) {
    ExpectGroundedOnGrid<NatS>(text, [](const Edge&) { return uint64_t{1}; });
    ExpectGroundedOnGrid<RealPlusS>(text, [](const Edge&) { return 0.5; });
    ExpectGroundedOnGrid<ProvPolyS>(text, step);
  }
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

/// Naive and SemiNaive on a caller-built EDB must both reach the grounded
/// least fixpoint; returns the naive fixpoint for extra spot checks.
template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
IdbInstance<P> ExpectGrounded(const Program& prog, const EdbInstance<P>& edb) {
  std::optional<IdbInstance<P>> grounded = GroundedFixpoint<P>(prog, edb);
  EXPECT_TRUE(grounded.has_value());
  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(semi.converged);
  ExpectStepBound(prog, naive, /*semi=*/false);
  ExpectStepBound(prog, semi, /*semi=*/true);
  if (grounded.has_value()) {
    EXPECT_TRUE(naive.idb.Equals(*grounded));
    EXPECT_TRUE(semi.idb.Equals(*grounded));
  }
  return std::move(naive.idb);
}

TEST(EngineEquivalence, BedbConditionsAndOrderComparisons) {
  // Residual negated Boolean-EDB conditions plus an integer order
  // comparison inside the recursion (CheckCondition → Domain::AsInt).
  constexpr const char* kText = R"(
    edb E/2.
    bedb Blocked/1.
    idb T/2.
    T(X,Y) :- { E(X,Y) | !Blocked(Y), X < Y }
            ; { T(X,Z) * E(Z,Y) | !Blocked(Y), X < Y }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom).value();
  EdbInstance<TropS> edb(prog);
  Relation<TropS>& e_rel = edb.pops(prog.FindPredicate("E"));
  std::vector<ConstId> ids;
  for (int v = 0; v < 24; ++v) ids.push_back(dom.InternInt(v));
  for (int v = 0; v + 1 < 24; ++v) {
    e_rel.Merge({ids[v], ids[v + 1]}, 1.0);
    if (v + 3 < 24) e_rel.Merge({ids[v], ids[v + 3]}, 2.5);
  }
  edb.boolean(prog.FindPredicate("Blocked")).Set({ids[5]}, true);
  edb.boolean(prog.FindPredicate("Blocked")).Set({ids[11]}, true);
  IdbInstance<TropS> t = ExpectGrounded<TropS>(prog, edb);
  const Relation<TropS>& t_rel = t.idb(prog.FindPredicate("T"));
  EXPECT_EQ(t_rel.Get({ids[0], ids[5]}), TropS::Zero());  // blocked target
  EXPECT_EQ(t_rel.Get({ids[0], ids[6]}), 5.0);  // 0→3→6 skips blocked 5
}

TEST(EngineEquivalence, MutualRecursionMultiHeadMerge) {
  // Two rules with distinct head predicates in one recursive group: each
  // disjunct's output must reach its own head relation.
  constexpr const char* kText = R"(
    edb E/2.
    idb Odd/2.
    idb Even/2.
    Odd(X,Y) :- E(X,Y) ; Even(X,Z) * E(Z,Y).
    Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom).value();
  Graph g = CycleGraph(9);
  std::vector<ConstId> ids = InternVertices(9, &dom);
  EdbInstance<BoolS> edb(prog);
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.FindPredicate("E")));
  IdbInstance<BoolS> t = ExpectGrounded<BoolS>(prog, edb);
  // On an odd cycle every pair is reachable by walks of both parities.
  EXPECT_EQ(t.idb(prog.FindPredicate("Odd")).support_size(), 81u);
  EXPECT_EQ(t.idb(prog.FindPredicate("Even")).support_size(), 81u);
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
  ExpectStepBound(prog, naive, /*semi=*/false);
  ExpectStepBound(prog, semi, /*semi=*/true);

  PosBoolS::Clause all;
  for (int i = 0; i < n - 1; ++i) all.insert("x" + std::to_string(i));
  EXPECT_EQ(naive.idb.idb(prog.FindPredicate("T")).Get({ids[0], ids[n - 1]}),
            PosBoolS::Value{all});

  EXPECT_EQ(naive.work, 125u);
  EXPECT_EQ(semi.work, 30u);
}

}  // namespace
}  // namespace datalogo
