// Semi-naive evaluation (Section 6): Theorem 6.4 (same answer as naive),
// the Ex. 6.6 quadratic differential rule, and the work-saving property
// that motivates the optimization.
#include <gtest/gtest.h>

#include "src/datalogo.h"

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
  L(X) :- [X = a] ; L(Z) * E(Z, X).
)";

template <Pops P>
void ExpectSameFixpoint(const Program& prog, const EdbInstance<P>& edb)
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
{
  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(10000);
  auto semi = engine.SemiNaive(10000);
  ASSERT_TRUE(naive.converged);
  ASSERT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));
}

TEST(SemiNaive, MatchesNaiveOnBooleanTransitiveClosure) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Domain dom;
    auto prog = ParseProgram(kLinearTc, &dom);
    ASSERT_TRUE(prog.ok());
    Graph g = RandomGraph(10, 25, seed);
    std::vector<ConstId> ids = InternVertices(10, &dom);
    EdbInstance<BoolS> edb(prog.value());
    LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                     &edb.pops(prog.value().FindPredicate("E")));
    ExpectSameFixpoint<BoolS>(prog.value(), edb);
  }
}

TEST(SemiNaive, MatchesNaiveOnQuadraticTransitiveClosure) {
  // Example 6.6: two IDB occurrences per sum-product; the differential
  // rule evaluates (δ ⋈ T_old) ∨ (T_new ⋈ δ).
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Domain dom;
    auto prog = ParseProgram(kQuadraticTc, &dom);
    ASSERT_TRUE(prog.ok());
    Graph g = RandomGraph(9, 20, seed + 100);
    std::vector<ConstId> ids = InternVertices(9, &dom);
    EdbInstance<BoolS> edb(prog.value());
    LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                     &edb.pops(prog.value().FindPredicate("E")));
    ExpectSameFixpoint<BoolS>(prog.value(), edb);
  }
}

TEST(SemiNaive, MatchesNaiveOnTropicalSssp) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Domain dom;
    auto prog = ParseProgram(kSssp, &dom);
    ASSERT_TRUE(prog.ok());
    // Vertex "a" must exist: name vertex 0 "a".
    Graph g = RandomGraph(12, 30, seed + 7);
    std::vector<ConstId> ids;
    ids.push_back(dom.InternSymbol("a"));
    for (int i = 1; i < 12; ++i) {
      ids.push_back(dom.InternSymbol("v" + std::to_string(i)));
    }
    EdbInstance<TropS> edb(prog.value());
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.value().FindPredicate("E")));
    ExpectSameFixpoint<TropS>(prog.value(), edb);
  }
}

TEST(SemiNaive, MatchesNaiveOnTropicalApsp) {
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = RandomGraph(14, 45, /*seed=*/11);
  std::vector<ConstId> ids = InternVertices(14, &dom);
  EdbInstance<TropS> edb(prog.value());
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.value().FindPredicate("E")));
  ExpectSameFixpoint<TropS>(prog.value(), edb);
}

TEST(SemiNaive, MatchesNaiveOnFuzzyAndViterbi) {
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = RandomGraph(10, 30, /*seed=*/5);
  std::vector<ConstId> ids = InternVertices(10, &dom);
  {
    EdbInstance<FuzzyS> edb(prog.value());
    LoadEdges<FuzzyS>(g, ids,
                      [](const Edge& e) { return 1.0 / (1.0 + e.weight); },
                      &edb.pops(prog.value().FindPredicate("E")));
    ExpectSameFixpoint<FuzzyS>(prog.value(), edb);
  }
  {
    EdbInstance<ViterbiS> edb(prog.value());
    LoadEdges<ViterbiS>(g, ids,
                        [](const Edge& e) { return 1.0 / (1.0 + e.weight); },
                        &edb.pops(prog.value().FindPredicate("E")));
    ExpectSameFixpoint<ViterbiS>(prog.value(), edb);
  }
}

TEST(SemiNaive, DoesLessJoinWorkThanNaive) {
  // The point of Sec. 6: δ is much smaller than T, so the differential
  // rule touches fewer tuples. Compare the work counters on a long chain.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom);
  ASSERT_TRUE(prog.ok());
  const int n = 60;
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<BoolS> edb(prog.value());
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<BoolS> engine(prog.value(), edb);
  auto naive = engine.Naive(10000);
  auto semi = engine.SemiNaive(10000);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb));
  // The naive engine re-derives every tuple every iteration: Θ(n) factor.
  EXPECT_LT(semi.work * 5, naive.work);
}

TEST(SemiNaive, NonDifferentialAblationAgreesButWorksHarder) {
  // Sec. 6.3: Algorithm 3 without the differential rule computes the same
  // fixpoint but performs as much join work as naive evaluation.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = RandomGraph(20, 60, /*seed=*/77);
  std::vector<ConstId> ids = InternVertices(20, &dom);
  EdbInstance<BoolS> edb(prog.value());
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<BoolS> engine(prog.value(), edb);
  auto naive = engine.Naive(10000);
  auto nodiff = engine.SemiNaiveNonDifferential(10000);
  auto diff = engine.SemiNaive(10000);
  ASSERT_TRUE(naive.converged && nodiff.converged && diff.converged);
  EXPECT_TRUE(naive.idb.Equals(nodiff.idb));
  EXPECT_TRUE(naive.idb.Equals(diff.idb));
  // The ablation does (almost exactly) naive work; the differential rule
  // does strictly less.
  EXPECT_EQ(nodiff.work, naive.work);
  EXPECT_LT(diff.work, nodiff.work);
}

TEST(SemiNaive, EmptyProgramAndEmptyEdb) {
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<BoolS> edb(prog.value());
  Engine<BoolS> engine(prog.value(), edb);
  auto semi = engine.SemiNaive(10);
  EXPECT_TRUE(semi.converged);
  EXPECT_EQ(semi.idb.TotalSupport(), 0u);
}

TEST(SemiNaive, MinusOperatorSuppressesNonImprovements) {
  // Trop+ ⊖ (Eq. 6): a re-derived equal-or-worse distance must not appear
  // in δ. On a cycle, distances stabilize and δ must empty out.
  Domain dom;
  auto prog = ParseProgram(kSssp, &dom);
  ASSERT_TRUE(prog.ok());
  std::vector<ConstId> ids;
  ids.push_back(dom.InternSymbol("a"));
  for (int i = 1; i < 6; ++i) {
    ids.push_back(dom.InternSymbol("v" + std::to_string(i)));
  }
  Graph g = CycleGraph(6);
  EdbInstance<TropS> edb(prog.value());
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<TropS> engine(prog.value(), edb);
  auto semi = engine.SemiNaive(1000);
  ASSERT_TRUE(semi.converged);
  int l = prog.value().FindPredicate("L");
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(semi.idb.idb(l).Get({ids[i]}), static_cast<double>(i));
  }
}

// Two rules and three disjuncts share the head T, so one round emits
// several contributions per head tuple: E and F hold the same edges at
// different weights, making some contributions better than T(u) and
// some worse. δ is formed at emission (c ⊖ T(u) per contribution).
constexpr const char* kSharedHead = R"(
  edb E/2.
  edb F/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
  T(X,Y) :- F(X,Y) ; T(X,Z) * F(Z,Y) ; F(X,Z) * T(Z,Y).
)";

/// SemiNaive's fixpoint on kSharedHead over a 6-vertex graph must equal
/// Naive's; returns SemiNaive's join work. `value(w, f)` gives the E
/// (f = false) or F (f = true) value of an edge whose whole weight is w.
template <Pops P, typename Value>
uint64_t SharedHeadSemiNaiveWork(Value value) {
  Domain dom;
  auto prog = ParseProgram(kSharedHead, &dom);
  EXPECT_TRUE(prog.ok());
  Graph g = RandomGraph(6, 10, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(6, &dom);
  EdbInstance<P> edb(prog.value());
  for (bool f : {false, true}) {
    LoadEdges<P>(
        g, ids,
        [&](const Edge& e) { return value(1 + static_cast<int>(e.weight), f); },
        &edb.pops(prog.value().FindPredicate(f ? "F" : "E")));
  }
  Engine<P> engine(prog.value(), edb);
  auto naive = engine.Naive(10000);
  auto semi = engine.SemiNaive(10000);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(semi.idb)) << P::kName;
  return semi.work;
}

TEST(SemiNaive, SharedHeadContributionsMatchNaiveOnEveryDioid) {
  // E weighs an edge w, F weighs it 12 - w (w in 1..11). The work counts
  // were taken with δ formed by diffing a whole candidate F(T) against T;
  // forming it at emission visits the same join entries.
  auto weight = [](int w, bool f) { return f ? 12 - w : w; };
  EXPECT_EQ(SharedHeadSemiNaiveWork<BoolS>([](int, bool) { return true; }),
            166u);
  EXPECT_EQ(SharedHeadSemiNaiveWork<TropS>([&](int w, bool f) {
              return static_cast<double>(weight(w, f));
            }),
            166u);
  EXPECT_EQ(SharedHeadSemiNaiveWork<TropNatS>([&](int w, bool f) {
              return static_cast<uint64_t>(weight(w, f));
            }),
            166u);
  EXPECT_EQ(SharedHeadSemiNaiveWork<FuzzyS>([&](int w, bool f) {
              return weight(w, f) / 16.0;
            }),
            203u);
  EXPECT_EQ(SharedHeadSemiNaiveWork<ViterbiS>([&](int w, bool f) {
              return weight(w, f) / 16.0;
            }),
            166u);
  int var = 0;
  EXPECT_EQ(SharedHeadSemiNaiveWork<PosBoolS>([&](int, bool f) {
              return PosBoolS::Var((f ? "f" : "e") + std::to_string(var++));
            }),
            280u);
}

}  // namespace
}  // namespace datalogo
