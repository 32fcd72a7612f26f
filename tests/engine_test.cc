// Unit tests for the support-based relational engine (Algorithm 1).
#include <gtest/gtest.h>

#include "src/datalogo.h"

namespace datalogo {
namespace {

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

TEST(Engine, TransitiveClosureMatchesBfsOracle) {
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  Graph g = RandomGraph(15, 30, /*seed=*/3);
  std::vector<ConstId> ids = InternVertices(15, &dom);
  EdbInstance<BoolS> edb(prog.value());
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.value().FindPredicate("E")));
  Engine<BoolS> engine(prog.value(), edb);
  auto result = engine.Naive(1000);
  ASSERT_TRUE(result.converged);
  int t = prog.value().FindPredicate("T");
  for (int s = 0; s < 15; ++s) {
    std::vector<bool> reach = g.ReachableFrom(s);
    for (int v = 0; v < 15; ++v) {
      bool expect = reach[v];
      if (v == s) {
        // T is the irreflexive closure unless s lies on a cycle.
        expect = false;
        for (const Edge& e : g.edges()) {
          if (e.src == s && g.ReachableFrom(e.dst)[s]) expect = true;
        }
      }
      EXPECT_EQ(result.idb.idb(t).Get({ids[s], ids[v]}), expect)
          << s << "->" << v;
    }
  }
}

TEST(Engine, EmptyEdbConvergesImmediately) {
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<BoolS> edb(prog.value());
  Engine<BoolS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.steps, 0);
  EXPECT_EQ(result.idb.TotalSupport(), 0u);
}

TEST(Engine, ConstantsInRuleAtoms) {
  // Only paths that start at vertex `a` are derived.
  constexpr const char* kText = R"(
    edb E/2.
    idb R/1.
    R(Y) :- E(a, Y) ; R(Z) * E(Z, Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EdbInstance<BoolS> edb(prog.value());
  auto& e = edb.pops(prog.value().FindPredicate("E"));
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c"), d = dom.InternSymbol("d");
  e.Set({a, b}, true);
  e.Set({b, c}, true);
  e.Set({d, a}, true);  // unreachable from a
  Engine<BoolS> engine(prog.value(), edb);
  auto result = engine.Naive(100);
  ASSERT_TRUE(result.converged);
  int r = prog.value().FindPredicate("R");
  EXPECT_TRUE(result.idb.idb(r).Get({b}));
  EXPECT_TRUE(result.idb.idb(r).Get({c}));
  EXPECT_FALSE(result.idb.idb(r).Get({d}));
  EXPECT_FALSE(result.idb.idb(r).Get({a}));  // d→a exists but d is not reached
}

TEST(Engine, RepeatedVariableInAtom) {
  // Self-loops: S(X) :- E(X, X). The join checks E's two columns in
  // kJoinBatch-row chunks, so E's size sweeps across two chunk boundaries
  // under four self-loop patterns, and S is checked against a scan of E.
  constexpr const char* kText = R"(
    edb E/2.
    idb S/1.
    S(X) :- E(X, X).
  )";
  constexpr uint32_t kB = Engine<BoolS>::kJoinBatch;
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  const int e_pred = prog.value().FindPredicate("E");
  const int s_pred = prog.value().FindPredicate("S");
  auto self_loop = [&](int pattern, uint32_t i) {
    switch (pattern) {
      case 0: return false;               // none
      case 1: return true;                // all
      case 2: return i % 2 == 0;          // alternating
      default: return i % kB == kB - 1;   // last row of each chunk
    }
  };
  for (uint32_t n = 0; n <= 2 * kB + 3; ++n) {
    for (int pattern = 0; pattern < 4; ++pattern) {
      EdbInstance<BoolS> edb(prog.value());
      Relation<BoolS>& e = edb.pops(e_pred);
      for (uint32_t i = 0; i < n; ++i) {
        const ConstId x = dom.InternInt(i);
        e.Set({x, self_loop(pattern, i) ? x : dom.InternInt(1000 + i)}, true);
      }
      std::vector<ConstId> expected;
      e.ForEachRow([&](uint32_t r) {
        if (e.Cell(r, 0) == e.Cell(r, 1)) expected.push_back(e.Cell(r, 0));
      });
      Engine<BoolS> engine(prog.value(), edb);
      auto result = engine.Naive(10);
      ASSERT_TRUE(result.converged);
      const Relation<BoolS>& s = result.idb.idb(s_pred);
      EXPECT_EQ(s.support_size(), expected.size())
          << "n=" << n << " pattern=" << pattern;
      for (ConstId x : expected) {
        EXPECT_TRUE(s.Get({x})) << "n=" << n << " pattern=" << pattern;
      }
    }
  }
}

TEST(Engine, ComparisonConditionsFilter) {
  // Keep only edges with source ≠ target and weight sum over Trop.
  constexpr const char* kText = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- { E(X,Y) | X != Y }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<TropS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");
  auto& e = edb.pops(prog.value().FindPredicate("E"));
  e.Set({a, a}, 1.0);
  e.Set({a, b}, 2.0);
  Engine<TropS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  ASSERT_TRUE(result.converged);
  int t = prog.value().FindPredicate("T");
  EXPECT_EQ(result.idb.idb(t).Get({a, a}), TropS::Inf());
  EXPECT_EQ(result.idb.idb(t).Get({a, b}), 2.0);
}

TEST(Engine, IntegerOrderComparisons) {
  constexpr const char* kText = R"(
    edb V/1.
    idb Small/1.
    Small(X) :- { V(X) | X < 3 }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<NatS> edb(prog.value());
  for (int i = 0; i < 6; ++i) {
    edb.pops(prog.value().FindPredicate("V"))
        .Set({dom.InternInt(i)}, uint64_t(i + 100));
  }
  Engine<NatS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  ASSERT_TRUE(result.converged);
  int small = prog.value().FindPredicate("Small");
  EXPECT_EQ(result.idb.idb(small).support_size(), 3u);
  EXPECT_EQ(result.idb.idb(small).Get({dom.InternInt(2)}), 102u);
  EXPECT_EQ(result.idb.idb(small).Get({dom.InternInt(3)}), 0u);
}

TEST(Engine, NegatedBooleanConditionAtom) {
  // Pairs connected by E but NOT flagged in Blocked.
  constexpr const char* kText = R"(
    edb E/2.
    bedb Blocked/2.
    idb T/2.
    T(X,Y) :- { E(X,Y) | !Blocked(X,Y) }.
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<BoolS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c");
  auto& e = edb.pops(prog.value().FindPredicate("E"));
  e.Set({a, b}, true);
  e.Set({a, c}, true);
  edb.boolean(prog.value().FindPredicate("Blocked")).Set({a, c}, true);
  Engine<BoolS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  ASSERT_TRUE(result.converged);
  int t = prog.value().FindPredicate("T");
  EXPECT_TRUE(result.idb.idb(t).Get({a, b}));
  EXPECT_FALSE(result.idb.idb(t).Get({a, c}));
}

TEST(Engine, MultipleRulesSameHeadAccumulate) {
  constexpr const char* kText = R"(
    edb A/1.
    edb B/1.
    idb U/1.
    U(X) :- A(X).
    U(X) :- B(X).
  )";
  Domain dom;
  auto prog = ParseProgram(kText, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<NatS> edb(prog.value());
  ConstId x = dom.InternSymbol("x");
  edb.pops(prog.value().FindPredicate("A")).Set({x}, 3u);
  edb.pops(prog.value().FindPredicate("B")).Set({x}, 4u);
  Engine<NatS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.idb.idb(prog.value().FindPredicate("U")).Get({x}), 7u);
}

TEST(Engine, BagSemanticsCountsPaths) {
  // Over N, the transitive-closure program counts distinct derivations
  // (paths); on a diamond a→{b,c}→d there are exactly 2 paths a⇒d.
  Domain dom;
  auto prog = ParseProgram(kTc, &dom);
  ASSERT_TRUE(prog.ok());
  EdbInstance<NatS> edb(prog.value());
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b"),
          c = dom.InternSymbol("c"), d = dom.InternSymbol("d");
  auto& e = edb.pops(prog.value().FindPredicate("E"));
  e.Set({a, b}, 1u);
  e.Set({a, c}, 1u);
  e.Set({b, d}, 1u);
  e.Set({c, d}, 1u);
  Engine<NatS> engine(prog.value(), edb);
  auto result = engine.Naive(10);
  ASSERT_TRUE(result.converged);
  int t = prog.value().FindPredicate("T");
  EXPECT_EQ(result.idb.idb(t).Get({a, d}), 2u);
  EXPECT_EQ(result.idb.idb(t).Get({a, b}), 1u);
}

}  // namespace
}  // namespace datalogo
