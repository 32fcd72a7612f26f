// Semi-naive evaluation (Section 6): Theorem 6.4 (same answer as naive),
// the Ex. 6.6 quadratic differential rule, and the work-saving property
// that motivates the optimization.
#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/datalogo.h"
#include "tests/grounded_oracle.h"
#include "tests/step_bound.h"

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
  ExpectStepBound(prog, naive, /*semi=*/false);
  ExpectStepBound(prog, semi, /*semi=*/true);
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
  ExpectStepBound(prog.value(), naive, /*semi=*/false);
  ExpectStepBound(prog.value(), semi, /*semi=*/true);
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

// -------- Emission shapes --------
//
// The innermost join level emits through one per-drain head probe: head
// positions bound above it are written once per drained batch, the
// positions it binds are read from its columns, and T is probed per row
// before any head tuple is written. Each program puts a different kind
// of head position at that level (the forward program joins in atom
// order, so the last atom is the innermost level).
struct EmissionShape {
  const char* name;
  const char* text;
  const char* head;  ///< the predicate whose emission the shape exercises
};

constexpr EmissionShape kEmissionShapes[] = {
    {"innermost level binds head position 1", R"(
      edb E/2.
      idb T/2.
      T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
    )", "T"},
    {"innermost level binds head position 0", R"(
      edb E/2.
      idb T/2.
      T(X,Y) :- E(X,Y) ; T(Z,Y) * E(X,Z).
    )", "T"},
    {"constant head column", R"(
      edb E/2.
      idb H/2.
      H(v4,Y) :- E(v4,Y) ; H(v4,Z) * E(Z,Y).
    )", "H"},
    {"repeated head variable", R"(
      edb E/2.
      idb T/2.
      idb L/2.
      T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
      L(Y,Y) :- T(X,Z) * E(Z,Y) ; L(Z,Z) * E(Z,Y).
    )", "L"},
    {"residual condition", R"(
      edb E/2.
      idb T/2.
      T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y) * [Y != X].
    )", "T"},
    {"arity-1 head", R"(
      edb E/2.
      idb L/1.
      L(X) :- [X = v4] ; L(Z) * E(Z,X).
    )", "L"},
    {"arity-3 head", R"(
      edb E/2.
      idb P/3.
      P(X,Z,Y) :- E(X,Z) * E(Z,Y) ; P(X,Z,W) * E(W,Y).
    )", "P"},
};

/// The id layouts: the gap between consecutive vertex ids. Gap 1 keeps
/// an arity-2 head's row-id table direct-addressed; gap 101 spreads the
/// ids far enough that it hashes.
constexpr int kIdGaps[] = {1, 101};

/// The join trace of one shape on one carrier: pinned per carrier, and
/// equal on both id layouts.
struct ShapeCounters {
  uint64_t naive_work = 0;
  uint64_t semi_work = 0;
  int naive_steps = 0;
  int semi_steps = 0;
  bool operator==(const ShapeCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ShapeCounters& c) {
  return os << "{" << c.naive_work << ", " << c.semi_work << ", "
            << c.naive_steps << ", " << c.semi_steps << "}";
}

/// Runs `shape` over a 6-vertex random graph (v4 reaches every other
/// vertex) with vertex ids `gap` apart, E valued by `value(w, i)` (w in
/// 1..10 the edge's whole weight, i its index). Naive and SemiNaive must
/// both equal the grounded least fixpoint and keep the step bound; the
/// head relation must be non-empty, and an arity-2 head direct-addressed
/// exactly on the dense layout.
template <Pops P, typename Value>
ShapeCounters RunEmissionShape(const EmissionShape& shape, int gap,
                               Value value) {
  SCOPED_TRACE(std::string(P::kName) + ", id gap " + std::to_string(gap));
  // Vertices first, so a head constant (v4) has its layout's id too.
  Domain dom;
  const int n = 6;
  std::vector<ConstId> ids;
  for (int v = 0; v < n; ++v) {
    ids.push_back(dom.InternSymbol("v" + std::to_string(v)));
    for (int pad = 1; pad < gap; ++pad) {
      dom.InternSymbol("pad" + std::to_string(v) + "_" + std::to_string(pad));
    }
  }
  auto prog_or = ParseProgram(shape.text, &dom);
  EXPECT_TRUE(prog_or.ok());
  if (!prog_or.ok()) return {};
  const Program& prog = prog_or.value();
  const Graph g = RandomGraph(n, 12, /*seed=*/3);
  EdbInstance<P> edb(prog);
  int edge = 0;
  LoadEdges<P>(
      g, ids,
      [&](const Edge& e) {
        return value(1 + static_cast<int>(e.weight), edge++);
      },
      &edb.pops(prog.FindPredicate("E")));
  const std::optional<IdbInstance<P>> grounded = GroundedFixpoint<P>(prog, edb);
  EXPECT_TRUE(grounded.has_value());
  if (!grounded.has_value()) return {};

  Engine<P> engine(prog, edb);
  const EvalResult<P> naive = engine.Naive(1 << 20);
  const EvalResult<P> semi = engine.SemiNaive(1 << 20);
  EXPECT_TRUE(naive.converged);
  EXPECT_TRUE(semi.converged);
  EXPECT_TRUE(naive.idb.Equals(*grounded));
  EXPECT_TRUE(semi.idb.Equals(*grounded));
  EXPECT_TRUE(semi.idb.Equals(naive.idb));
  ExpectStepBound(prog, naive, /*semi=*/false);
  ExpectStepBound(prog, semi, /*semi=*/true);
  const Relation<P>& head = semi.idb.idb(prog.FindPredicate(shape.head));
  EXPECT_GT(head.support_size(), 0u);
  if (head.arity() == 2) {
    EXPECT_EQ(head.direct_slots(), gap == 1);
  }
  return {naive.work, semi.work, naive.steps, semi.steps};
}

TEST(SemiNaive, EmissionShapesMatchNaiveAndGroundedOnEveryDioid) {
  // {naive work, semi work, naive steps, semi steps} per shape (rows, in
  // kEmissionShapes order) and carrier (B, Trop, TropNat, Fuzzy, Viterbi,
  // PosBool), taken with the per-row EmitHead emission that the per-drain
  // head probe replaced.
  constexpr ShapeCounters kGolden[][6] = {
      // innermost level binds head position 1
      {{213, 77, 3, 4}, {213, 77, 3, 4}, {213, 77, 3, 4},
       {290, 103, 4, 5}, {213, 91, 3, 4}, {367, 133, 5, 6}},
      // innermost level binds head position 0
      {{218, 79, 3, 4}, {218, 79, 3, 4}, {218, 79, 3, 4},
       {297, 102, 4, 5}, {218, 93, 3, 4}, {376, 127, 5, 6}},
      // constant head column
      {{43, 17, 3, 4}, {43, 17, 3, 4}, {43, 17, 3, 4},
       {60, 26, 4, 5}, {43, 22, 3, 4}, {77, 39, 5, 6}},
      // repeated head variable
      {{408, 157, 3, 6}, {408, 157, 3, 6}, {408, 157, 3, 6},
       {565, 183, 4, 7}, {408, 171, 3, 6}, {722, 213, 5, 8}},
      // residual condition
      {{205, 72, 3, 4}, {205, 72, 3, 4}, {205, 72, 3, 4},
       {277, 91, 4, 5}, {205, 83, 3, 4}, {349, 117, 5, 6}},
      // arity-1 head
      {{47, 18, 4, 5}, {47, 18, 4, 5}, {47, 18, 4, 5},
       {65, 27, 5, 6}, {47, 23, 4, 5}, {83, 40, 6, 7}},
      // arity-3 head
      {{482, 161, 3, 4}, {482, 161, 3, 4}, {482, 161, 3, 4},
       {482, 191, 3, 4}, {482, 188, 3, 4}, {643, 242, 4, 5}},
  };
  static_assert(std::size(kGolden) == std::size(kEmissionShapes));
  for (std::size_t s = 0; s < std::size(kEmissionShapes); ++s) {
    const EmissionShape& shape = kEmissionShapes[s];
    SCOPED_TRACE(shape.name);
    auto expect = [&](int carrier, auto run) {
      const ShapeCounters dense = run(kIdGaps[0]);
      EXPECT_EQ(dense, run(kIdGaps[1]));
      EXPECT_EQ(dense, kGolden[s][carrier]) << "carrier " << carrier;
    };
    expect(0, [&](int gap) {
      return RunEmissionShape<BoolS>(shape, gap,
                                     [](int, int) { return true; });
    });
    expect(1, [&](int gap) {
      return RunEmissionShape<TropS>(
          shape, gap, [](int w, int) { return static_cast<double>(w); });
    });
    expect(2, [&](int gap) {
      return RunEmissionShape<TropNatS>(
          shape, gap, [](int w, int) { return static_cast<uint64_t>(w); });
    });
    expect(3, [&](int gap) {
      return RunEmissionShape<FuzzyS>(shape, gap,
                                      [](int w, int) { return w / 16.0; });
    });
    expect(4, [&](int gap) {
      return RunEmissionShape<ViterbiS>(shape, gap,
                                        [](int w, int) { return w / 16.0; });
    });
    expect(5, [&](int gap) {
      return RunEmissionShape<PosBoolS>(shape, gap, [](int, int i) {
        return PosBoolS::Var("e" + std::to_string(i));
      });
    });
  }
}

}  // namespace
}  // namespace datalogo
