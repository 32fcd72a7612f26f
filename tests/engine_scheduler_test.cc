// Tests for Engine::SemiNaive's reliance scheduling (reliance-graph SCC
// condensation with per-group local fixpoints and triggered rule sets),
// checked against Naive — the global Algorithm-1 loop:
//   * single-group programs (every golden recursion) run one group whose
//     local rounds are the whole semi-naive loop: group_iterations ==
//     steps, nothing skipped, `work` pinned to the seed goldens;
//   * multi-group programs reach the Naive fixpoint across {B, Trop,
//     PosBool} x threads {1, 4}, with steps, `work` and the group
//     counters pinned;
//   * the group counters are thread-count invariant and Naive never
//     moves them;
//   * triggered sets actually drain: alternating deltas in a mutual
//     recursion produce a nonzero rules_skipped().
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/datalogo.h"
#include "src/semiring/provenance.h"

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

// Base group + mutually recursive Odd/Even group + downstream recursive
// closure group — the scheduler's multi-group exercise program (also the
// bench_seminaive scheduler workload and examples/data/parity_paths.dl).
constexpr const char* kParityPaths = R"(
  edb E/2.
  idb Odd/2. idb Even/2. idb T/2.
  Odd(X,Y) :- E(X,Y).
  Odd(X,Y) :- Even(X,Z) * E(Z,Y).
  Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  T(X,Y) :- Even(X,Y) ; Odd(X,Y) ; T(X,Z) * T(Z,Y).
)";

Graph ChainGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  return g;
}

template <Pops P>
struct SchedRun {
  EvalResult<P> result;
  uint64_t index_builds, index_hits, idb_index_builds, idb_index_hits;
  uint64_t group_iterations, rules_skipped;
  int groups;
};

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
SchedRun<P> RunOnce(const Program& prog, const EdbInstance<P>& edb,
                    bool semi, int threads) {
  Engine<P> engine(prog, edb, EngineOptions{.num_threads = threads});
  SchedRun<P> out{semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20),
                  engine.index_builds(),
                  engine.index_hits(),
                  engine.idb_index_builds(),
                  engine.idb_index_hits(),
                  engine.group_iterations(),
                  engine.rules_skipped(),
                  engine.reliance().num_groups()};
  EXPECT_TRUE(out.result.converged);
  return out;
}

/// The pinned outcome of one SemiNaive run.
struct SemiGolden {
  int steps;
  uint64_t work;
  uint64_t group_iterations;
  uint64_t rules_skipped;
};

/// SemiNaive must reach the Naive fixpoint and hit `golden` at 1 and 4
/// threads; Naive never moves the group counters.
template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectSemiNaiveMatchesNaive(const Program& prog,
                                 const EdbInstance<P>& edb,
                                 const SemiGolden& golden) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << P::kName << " threads=" << threads);
    SchedRun<P> naive = RunOnce<P>(prog, edb, /*semi=*/false, threads);
    SchedRun<P> semi = RunOnce<P>(prog, edb, /*semi=*/true, threads);
    EXPECT_TRUE(semi.result.idb.Equals(naive.result.idb));
    EXPECT_EQ(semi.result.steps, golden.steps);
    EXPECT_EQ(semi.result.work, golden.work);
    EXPECT_EQ(semi.group_iterations, golden.group_iterations);
    EXPECT_EQ(semi.rules_skipped, golden.rules_skipped);
    EXPECT_EQ(naive.group_iterations, 0u);
    EXPECT_EQ(naive.rules_skipped, 0u);
  }
}

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectSemiNaiveMatchesNaiveOnGraph(const char* text, const Graph& g,
                                        auto&& lift,
                                        const SemiGolden& golden) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  ExpectSemiNaiveMatchesNaive<P>(prog, edb, golden);
}

// Single-group programs: one group, group_iterations == steps, no skips;
// the work goldens are the seed's (engine_equivalence_test).
TEST(EngineScheduler, SingleGroupBooleanLinearTcChain80) {
  ExpectSemiNaiveMatchesNaiveOnGraph<BoolS>(
      kLinearTc, ChainGraph(80), [](const Edge&) { return true; },
      {.steps = 80, .work = 6320, .group_iterations = 80, .rules_skipped = 0});
}

TEST(EngineScheduler, SingleGroupBooleanQuadraticTcChain80) {
  ExpectSemiNaiveMatchesNaiveOnGraph<BoolS>(
      kQuadraticTc, ChainGraph(80), [](const Edge&) { return true; },
      {.steps = 9, .work = 95925, .group_iterations = 9, .rules_skipped = 0});
}

TEST(EngineScheduler, SingleGroupTropicalSsspChain80) {
  ExpectSemiNaiveMatchesNaiveOnGraph<TropS>(
      kSssp, ChainGraph(80), [](const Edge& e) { return e.weight; },
      {.steps = 81, .work = 159, .group_iterations = 81, .rules_skipped = 0});
}

TEST(EngineScheduler, SingleGroupTropicalApspGrid8x8) {
  ExpectSemiNaiveMatchesNaiveOnGraph<TropS>(
      kLinearTc, GridGraph(8, 8), [](const Edge& e) { return e.weight; },
      {.steps = 15, .work = 3248, .group_iterations = 15, .rules_skipped = 0});
}

// Multi-group programs: one seed round per group plus the local rounds,
// and drained step rules skipped.
TEST(EngineScheduler, ParityPathsMatchOnBoolean) {
  ExpectSemiNaiveMatchesNaiveOnGraph<BoolS>(
      kParityPaths, RandomGraph(40, 120, 7), [](const Edge&) { return true; },
      {.steps = 11, .work = 61390, .group_iterations = 11,
       .rules_skipped = 7});
}

TEST(EngineScheduler, ParityPathsMatchOnTropical) {
  ExpectSemiNaiveMatchesNaiveOnGraph<TropS>(
      kParityPaths, RandomGraph(40, 120, 7),
      [](const Edge& e) { return e.weight; },
      {.steps = 15, .work = 84467, .group_iterations = 15,
       .rules_skipped = 8});
}

TEST(EngineScheduler, PosBoolProvenanceMatchesNaive) {
  // PosBool[X] provenance on a labeled chain, run through the multi-head
  // base/step split (two groups sharing the head predicate T).
  constexpr const char* kSplitTc = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y).
    T(X,Y) :- T(X,Z) * E(Z,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kSplitTc, &dom).value();
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
  for (int threads : {1, 4}) {
    SchedRun<PosBoolS> naive =
        RunOnce<PosBoolS>(prog, edb, /*semi=*/false, threads);
    SchedRun<PosBoolS> semi =
        RunOnce<PosBoolS>(prog, edb, /*semi=*/true, threads);
    EXPECT_EQ(semi.groups, 2);
    EXPECT_TRUE(semi.result.idb.Equals(naive.result.idb));
    PosBoolS::Clause all;
    for (int i = 0; i < n - 1; ++i) all.insert("x" + std::to_string(i));
    EXPECT_EQ(
        semi.result.idb.idb(prog.FindPredicate("T")).Get({ids[0], ids[n - 1]}),
        PosBoolS::Value{all});
  }
}

TEST(EngineScheduler, GroupCountersAreThreadCountInvariant) {
  Domain dom;
  auto prog = ParseProgram(kParityPaths, &dom).value();
  Graph g = RandomGraph(40, 120, 7);
  std::vector<ConstId> ids = InternVertices(40, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  SchedRun<TropS> t1 = RunOnce<TropS>(prog, edb, /*semi=*/true, 1);
  SchedRun<TropS> t4 = RunOnce<TropS>(prog, edb, /*semi=*/true, 4);
  EXPECT_TRUE(t1.result.idb.Equals(t4.result.idb));
  EXPECT_EQ(t1.result.steps, t4.result.steps);
  EXPECT_EQ(t1.result.work, t4.result.work);
  EXPECT_EQ(t1.index_builds, t4.index_builds);
  EXPECT_EQ(t1.index_hits, t4.index_hits);
  EXPECT_EQ(t1.idb_index_builds, t4.idb_index_builds);
  EXPECT_EQ(t1.idb_index_hits, t4.idb_index_hits);
  EXPECT_EQ(t1.group_iterations, t4.group_iterations);
  EXPECT_EQ(t1.rules_skipped, t4.rules_skipped);
}

TEST(EngineScheduler, TriggeredSetSkipsDrainedRules) {
  // The Odd/Even deltas drain in alternation (one parity moves per local
  // round), so every round skips one of the two step rules.
  Domain dom;
  auto prog = ParseProgram(kParityPaths, &dom).value();
  Graph g = ChainGraph(16);
  std::vector<ConstId> ids = InternVertices(16, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  // Groups: {Odd base}, {Odd step, Even step}, {T closure}.
  EXPECT_EQ(Engine<TropS>(prog, edb).reliance().num_groups(), 3);
  ExpectSemiNaiveMatchesNaive<TropS>(
      prog, edb,
      {.steps = 18, .work = 1160, .group_iterations = 18,
       .rules_skipped = 14});
}

TEST(EngineScheduler, TriggeredSetDrainsThroughDeltas) {
  // Mutual recursion with an asymmetric step relation: Q's deltas die out
  // long before P's, so the triggered set must shrink (skips accumulate)
  // while the fixpoint still matches Naive exactly.
  constexpr const char* kAsymmetric = R"(
    edb E/2. edb F/2.
    idb P/2. idb Q/2.
    P(X,Y) :- E(X,Y).
    P(X,Y) :- Q(X,Z) * E(Z,Y).
    Q(X,Y) :- P(X,Z) * F(Z,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kAsymmetric, &dom).value();
  EdbInstance<TropS> edb(prog);
  std::vector<ConstId> ids = InternVertices(12, &dom);
  auto& e_rel = edb.pops(prog.FindPredicate("E"));
  for (int i = 0; i + 1 < 12; ++i) e_rel.Set({ids[i], ids[i + 1]}, 1.0);
  edb.pops(prog.FindPredicate("F")).Set({ids[3], ids[4]}, 0.5);
  EXPECT_EQ(Engine<TropS>(prog, edb).reliance().num_groups(), 2);
  ExpectSemiNaiveMatchesNaive<TropS>(
      prog, edb,
      {.steps = 4, .work = 26, .group_iterations = 4, .rules_skipped = 2});
}

TEST(EngineScheduler, EdbColumnsAreScannedOncePerSpecAcrossGroups) {
  // E feeds the first group (A's base rule) and the last (C's join);
  // between them an E-free recursive group runs its own local fixpoint.
  // EDB relations never mutate during a run, so every re-read of E after
  // the first build per key-spec must be a pure cache hit that scans no
  // rows: edb_index_scan_rows() has to come out identical for naive and
  // semi-naive even though the two runs hit the cached E indexes a very
  // different number of times.
  constexpr const char* kThreeGroups = R"(
    edb E/2.
    idb A/2. idb B/2. idb C/2.
    A(X,Y) :- E(X,Y).
    B(X,Y) :- A(X,Y) ; B(X,Z) * A(Z,Y).
    C(X,Y) :- B(X,Y) * E(X,Y).
  )";
  Domain dom;
  auto prog = ParseProgram(kThreeGroups, &dom).value();
  Graph g = ChainGraph(24);
  std::vector<ConstId> ids = InternVertices(24, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kAuto}) {
    uint64_t expected_scan_rows = 0;
    bool first = true;
    for (bool semi : {false, true}) {
      SCOPED_TRACE(std::string(kind == IndexKind::kHash ? "hash" : "auto") +
                   (semi ? "/semi" : "/naive"));
      Engine<TropS> engine(prog, edb, EngineOptions{.index_kind = kind});
      EvalResult<TropS> r =
          semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
      ASSERT_TRUE(r.converged);
      // Naive re-prepares every rule each global round, so E must be
      // served from cache there. (SemiNaive may legitimately read E once
      // per group and never hit — the equality below still pins its hit
      // path to zero scan rows.)
      if (!semi) {
        EXPECT_GT(engine.index_hits(), engine.idb_index_hits());
      }
      if (first) {
        expected_scan_rows = engine.edb_index_scan_rows();
        // Builds scan E at most a few full passes: one per distinct
        // key-spec (plus the auto tier's min/max detection pass).
        EXPECT_GT(expected_scan_rows, 0u);
        EXPECT_LE(expected_scan_rows, 8 * g.edges().size());
        first = false;
      } else {
        EXPECT_EQ(engine.edb_index_scan_rows(), expected_scan_rows);
      }
    }
  }
}

TEST(EngineScheduler, BudgetIsATotalAcrossGroups) {
  // With a max_steps budget too small to finish, both entry points must
  // report non-convergence with steps == max_steps: SemiNaive's budget
  // is a total across groups, not per group.
  Domain dom;
  auto prog = ParseProgram(kParityPaths, &dom).value();
  Graph g = ChainGraph(32);
  std::vector<ConstId> ids = InternVertices(32, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  for (bool semi : {false, true}) {
    Engine<TropS> engine(prog, edb);
    EvalResult<TropS> r = semi ? engine.SemiNaive(3) : engine.Naive(3);
    EXPECT_FALSE(r.converged) << "semi=" << semi;
    EXPECT_EQ(r.steps, 3);
  }
}

}  // namespace
}  // namespace datalogo
