// Tiered-index invariance: the index tier is picked from the data alone
// (RelationIndex), so the same program over the same graph must give the
// same fixpoint (up to renaming), `steps`, `work` and all four
// index-cache counters however its constants are numbered. Each golden
// graph runs twice — vertex ids interned densely (single-column keys take
// the direct tier) and interned with unused constants padded between
// vertices (the same keys go sparse and take the hash tier) — naive and
// semi-naive, and both runs must equal the grounded least fixpoint
// (tests/grounded_oracle.h). Only probe *cost* may move, visible through
// the separate hash_probes/direct_probes counters. Workloads are the
// seed engine's goldens (Boolean / Tropical / PosBool provenance). A last
// test pins every index counter of a program whose Boolean condition atom
// is a join level, served by the same index cache as its POPS atoms.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
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

/// The counters that must be pinned across both id layouts.
struct PinnedCounters {
  int steps = 0;
  uint64_t work = 0;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t idb_index_builds = 0;
  uint64_t idb_index_hits = 0;
  bool operator==(const PinnedCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PinnedCounters& c) {
  return os << "{steps=" << c.steps << " work=" << c.work
            << " builds=" << c.index_builds << " hits=" << c.index_hits
            << " idb_builds=" << c.idb_index_builds
            << " idb_hits=" << c.idb_index_hits << "}";
}

template <Pops P>
struct RunResult {
  EvalResult<P> eval;
  PinnedCounters pinned;
  uint64_t hash_probes = 0;
  uint64_t direct_probes = 0;
  uint64_t incremental_appends = 0;
  uint64_t join_batched_rows = 0;
  uint64_t group_iterations = 0;
  uint64_t rules_skipped = 0;
};

template <Pops P>
RunResult<P> RunOnce(const Program& prog, const EdbInstance<P>& edb,
                     bool semi) {
  Engine<P> engine(prog, edb);
  RunResult<P> out{semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20)};
  out.pinned = {out.eval.steps,           out.eval.work,
                engine.index_builds(),    engine.index_hits(),
                engine.idb_index_builds(), engine.idb_index_hits()};
  out.hash_probes = engine.hash_probes();
  out.direct_probes = engine.direct_probes();
  out.incremental_appends = engine.idx_incremental_appends();
  out.join_batched_rows = engine.join_batched_rows();
  out.group_iterations = engine.group_iterations();
  out.rules_skipped = engine.rules_skipped();
  // The join-kernel totality invariant: every visited entry is decoded
  // through the batched kernel.
  EXPECT_EQ(out.join_batched_rows, out.eval.work);
  ExpectStepBound(prog, out.eval, semi);
  return out;
}

/// Unused constants interned after each vertex of the padded layout:
/// enough that every golden's single-column keys span more than
/// 4·live + 256 ids, the density rule's bound.
constexpr int kPad = 1000;

/// Interns vertices 0..n-1 as InternVertices does, but follows each with
/// kPad unused constants, so vertex ids are kPad + 1 apart.
std::vector<ConstId> InternPaddedVertices(int n, Domain* dom) {
  std::vector<ConstId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(dom->InternSymbol("v" + std::to_string(i)));
    for (int j = 0; j < kPad; ++j) {
      dom->InternSymbol("pad" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  return ids;
}

/// One workload with its vertices interned one way.
template <Pops P>
struct Layout {
  template <typename FillEdb>
  Layout(const char* text, int n, bool padded, FillEdb&& fill)
      : prog(ParseProgram(text, &dom).value()),
        ids(padded ? InternPaddedVertices(n, &dom) : InternVertices(n, &dom)),
        edb(prog) {
    fill(prog, ids, &edb);
  }
  Domain dom;
  Program prog;
  std::vector<ConstId> ids;
  EdbInstance<P> edb;
};

/// `idb` with every constant renamed through `to`, as an instance of
/// `prog` (same predicate numbering).
template <Pops P>
IdbInstance<P> Renamed(const Program& prog, const IdbInstance<P>& idb,
                       const std::unordered_map<ConstId, ConstId>& to) {
  IdbInstance<P> out(prog);
  for (int pred : prog.IdbPredicates()) {
    const Relation<P>& rel = idb.idb(pred);
    rel.ForEachRow([&](uint32_t r) {
      Tuple t(rel.arity(), 0);
      for (int i = 0; i < rel.arity(); ++i) t[i] = to.at(rel.Cell(r, i));
      out.idb(pred).Set(t, rel.ValueAt(r));
    });
  }
  return out;
}

/// Runs the workload on the dense and the padded layout, naive and
/// semi-naive, and checks: the dense run hits the `work` goldens and
/// SemiNaive's `steps` golden; both runs equal their grounded fixpoint;
/// the padded fixpoint renamed to dense ids equals the dense one; steps,
/// work and the four index-cache counters match; the dense run probes
/// direct indexes and the padded run hashes more. Every workload here is
/// one recursive rule, so SemiNaive runs one reliance group: its local
/// rounds are all the steps and it skips no rule, while Naive never moves
/// the group counters.
template <Pops P, typename FillEdb>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectTierInvariant(const char* text, int n, FillEdb&& fill,
                         uint64_t golden_naive_work,
                         uint64_t golden_semi_work, int golden_semi_steps) {
  const Layout<P> dense(text, n, /*padded=*/false, fill);
  const Layout<P> sparse(text, n, /*padded=*/true, fill);
  std::unordered_map<ConstId, ConstId> to_dense;
  for (int i = 0; i < n; ++i) to_dense[sparse.ids[i]] = dense.ids[i];
  const std::optional<IdbInstance<P>> dense_ground =
      GroundedFixpoint<P>(dense.prog, dense.edb);
  const std::optional<IdbInstance<P>> sparse_ground =
      GroundedFixpoint<P>(sparse.prog, sparse.edb);
  ASSERT_TRUE(dense_ground.has_value());
  ASSERT_TRUE(sparse_ground.has_value());

  for (bool semi : {false, true}) {
    SCOPED_TRACE(semi ? "semi-naive" : "naive");
    RunResult<P> d = RunOnce(dense.prog, dense.edb, semi);
    RunResult<P> s = RunOnce(sparse.prog, sparse.edb, semi);
    ASSERT_TRUE(d.eval.converged);
    ASSERT_TRUE(s.eval.converged);
    EXPECT_EQ(d.pinned.work, semi ? golden_semi_work : golden_naive_work);
    if (semi) {
      EXPECT_EQ(d.pinned.steps, golden_semi_steps);
    }
    EXPECT_EQ(d.group_iterations,
              semi ? static_cast<uint64_t>(d.pinned.steps) : 0u);
    EXPECT_EQ(d.rules_skipped, 0u);
    EXPECT_EQ(d.pinned, s.pinned);
    EXPECT_TRUE(d.eval.idb.Equals(*dense_ground));
    EXPECT_TRUE(s.eval.idb.Equals(*sparse_ground));
    EXPECT_TRUE(
        Renamed(dense.prog, s.eval.idb, to_dense).Equals(d.eval.idb));
    EXPECT_GT(d.direct_probes, 0u);
    EXPECT_GT(s.hash_probes, d.hash_probes);
  }
}

/// Loads `g`'s edges into E, valued by `lift`.
template <Pops P>
auto GraphEdges(const Graph& g, auto lift) {
  return [g, lift](const Program& prog, const std::vector<ConstId>& ids,
                   EdbInstance<P>* edb) {
    LoadEdges<P>(g, ids, lift, &edb->pops(prog.FindPredicate("E")));
  };
}

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectBitIdenticalOnGraph(const char* text, const Graph& g, auto&& lift,
                               uint64_t golden_naive_work,
                               uint64_t golden_semi_work,
                               int golden_semi_steps) {
  ExpectTierInvariant<P>(text, g.num_vertices(), GraphEdges<P>(g, lift),
                         golden_naive_work, golden_semi_work,
                         golden_semi_steps);
}

TEST(EngineIndexTiers, BooleanLinearTcChain80) {
  ExpectBitIdenticalOnGraph<BoolS>(kLinearTc, ChainGraph(80),
                                   [](const Edge&) { return true; },
                                   /*golden_naive_work=*/338120,
                                   /*golden_semi_work=*/6320,
                                   /*golden_semi_steps=*/80);
}

TEST(EngineIndexTiers, BooleanQuadraticTcChain80) {
  // Two IDB occurrences: exercises the t_new/t_old/delta index triple
  // (and its incremental refresh) under both tiers.
  ExpectBitIdenticalOnGraph<BoolS>(kQuadraticTc, ChainGraph(80),
                                   [](const Edge&) { return true; },
                                   /*golden_naive_work=*/244823,
                                   /*golden_semi_work=*/95925,
                                   /*golden_semi_steps=*/9);
}

TEST(EngineIndexTiers, TropicalSsspChain80) {
  ExpectBitIdenticalOnGraph<TropS>(kSssp, ChainGraph(80),
                                   [](const Edge& e) { return e.weight; },
                                   /*golden_naive_work=*/6479,
                                   /*golden_semi_work=*/159,
                                   /*golden_semi_steps=*/81);
}

TEST(EngineIndexTiers, TropicalApspGrid8x8) {
  ExpectBitIdenticalOnGraph<TropS>(kLinearTc, GridGraph(8, 8),
                                   [](const Edge& e) { return e.weight; },
                                   /*golden_naive_work=*/33936,
                                   /*golden_semi_work=*/3248,
                                   /*golden_semi_steps=*/15);
}

TEST(EngineIndexTiers, ProvenancePosBoolChain6) {
  const int n = 6;
  const Graph g = ChainGraph(n);
  ExpectTierInvariant<PosBoolS>(
      kLinearTc, n,
      [&](const Program& prog, const std::vector<ConstId>& ids,
          EdbInstance<PosBoolS>* edb) {
        int i = 0;
        for (const Edge& e : g.edges()) {
          edb->pops(prog.FindPredicate("E"))
              .Merge({ids[e.src], ids[e.dst]},
                     PosBoolS::Var("x" + std::to_string(i++)));
        }
      },
      /*golden_naive_work=*/125, /*golden_semi_work=*/30,
      /*golden_semi_steps=*/6);
}

TEST(EngineIndexTiers, RepeatedVariableChecksChordalCycle12) {
  // Repeated-variable atoms (T(X,X), E(X,X)) compile to check ops — the
  // one join-program construct where the batched kernel's vector
  // compare/compress path does real filtering work, so this golden pins
  // `work` (which counts check-failing entries too) across both tiers.
  // The chordal-cycle EDB gets explicit self-loops so the checks both
  // pass and fail.
  constexpr const char* kSelfLoopTc = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; T(X,X) * E(X,Y) ; T(X,Z) * E(Z,Y).
  )";
  Graph g = CycleGraph(12);
  for (int v = 0; v < 12; v += 4) g.AddEdge(v, v, 1.0);
  for (int v = 0; v < 12; v += 3) g.AddEdge(v, (v + 5) % 12, 2.0);
  ExpectBitIdenticalOnGraph<TropS>(kSelfLoopTc, g,
                                   [](const Edge& e) { return e.weight; },
                                   /*golden_naive_work=*/2996,
                                   /*golden_semi_work=*/554,
                                   /*golden_semi_steps=*/9);
}

TEST(EngineIndexTiers, SemiNaiveRefreshesDeltaIndexesIncrementally) {
  // Each semi-naive round clears and refills delta; the cache must
  // refresh its delta indexes by re-appending rows, not by rebuilding
  // from scratch — visible as a nonzero incremental-append counter on
  // both id layouts (and a zero one for single-shot naive evaluation,
  // whose EDB indexes are built once and only ever hit).
  const Graph g = GridGraph(8, 8);
  for (bool padded : {false, true}) {
    SCOPED_TRACE(padded ? "padded ids" : "dense ids");
    const Layout<TropS> l(kLinearTc, g.num_vertices(), padded,
                          GraphEdges<TropS>(g, [](const Edge& e) {
                            return e.weight;
                          }));
    EXPECT_GT(RunOnce(l.prog, l.edb, /*semi=*/true).incremental_appends, 0u);
    EXPECT_EQ(RunOnce(l.prog, l.edb, /*semi=*/false).incremental_appends,
              0u);
  }
}

/// The counters a run over a Boolean generator moves, pinned below.
struct EngineCounters {
  uint64_t work = 0;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t idb_index_builds = 0;
  uint64_t idb_index_hits = 0;
  uint64_t edb_index_scan_rows = 0;
  uint64_t hash_probes = 0;
  uint64_t direct_probes = 0;
  bool operator==(const EngineCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const EngineCounters& c) {
  return os << "{" << c.work << ", " << c.index_builds << ", "
            << c.index_hits << ", " << c.idb_index_builds << ", "
            << c.idb_index_hits << ", " << c.edb_index_scan_rows << ", "
            << c.hash_probes << ", " << c.direct_probes << "}";
}

template <Pops P>
EngineCounters CountersOf(const Engine<P>& e, uint64_t work) {
  return {work,
          e.index_builds(),
          e.index_hits(),
          e.idb_index_builds(),
          e.idb_index_hits(),
          e.edb_index_scan_rows(),
          e.hash_probes(),
          e.direct_probes()};
}

TEST(EngineIndexCounters, BooleanGeneratorInRecursiveRule) {
  // B(W,Y) binds Y, so it compiles to a join generator — a Boolean level
  // of the join kernel, indexed through the same cache as E and T —
  // inside the recursive disjunct. Naive, SemiNaive and one DRed batch
  // (whose planned programs order B among the POPS atoms) must match the
  // grounded fixpoint with every index counter pinned.
  constexpr const char* kText = R"(
    edb E/2.
    bedb B/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; { T(X,Z) * E(Z,W) | B(W,Y) }.
  )";
  Domain dom;
  const Program prog = ParseProgram(kText, &dom).value();
  const Graph g = GridGraph(5, 5);
  const int n = g.num_vertices();
  const std::vector<ConstId> ids = InternVertices(n, &dom);
  const int e = prog.FindPredicate("E");
  const int b = prog.FindPredicate("B");
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& x) { return x.weight; },
                   &edb.pops(e));
  for (int v = 0; v < n; ++v) {
    edb.boolean(b).Set({ids[v], ids[v]}, true);
    edb.boolean(b).Set({ids[v], ids[(v * 7 + 3) % n]}, true);
  }
  const std::optional<IdbInstance<TropS>> ground =
      GroundedFixpoint<TropS>(prog, edb);
  ASSERT_TRUE(ground.has_value());

  Engine<TropS> naive_engine(prog, edb);
  const EvalResult<TropS> naive = naive_engine.Naive(1 << 20);
  ASSERT_TRUE(naive.converged);
  EXPECT_TRUE(naive.idb.Equals(*ground));
  EXPECT_EQ(CountersOf(naive_engine, naive.work),
            (EngineCounters{17273, 12, 24, 9, 0, 218, 0, 7736}));

  Engine<TropS> engine(prog, edb);
  EvalResult<TropS> semi = engine.SemiNaive(1 << 20);
  ASSERT_TRUE(semi.converged);
  EXPECT_TRUE(semi.idb.Equals(*ground));
  EXPECT_EQ(CountersOf(engine, semi.work),
            (EngineCounters{3188, 12, 16, 9, 0, 218, 0, 1432}));

  EdbDelta<TropS> batch;
  batch.Delete(e, {ids[0], ids[1]});
  batch.Add(e, {ids[n - 1], ids[0]}, 1.5);
  const UpdateResult ur = engine.Update(batch, &edb, &semi.idb, 1 << 20);
  ASSERT_TRUE(ur.converged);
  EXPECT_EQ(ur.strategy, UpdateStrategy::kDred);
  const std::optional<IdbInstance<TropS>> reground =
      GroundedFixpoint<TropS>(prog, edb);
  ASSERT_TRUE(reground.has_value());
  EXPECT_TRUE(semi.idb.Equals(*reground));
  EXPECT_EQ(CountersOf(engine, semi.work + ur.work),
            (EngineCounters{5538, 29, 38, 23, 3, 480, 0, 2415}));
}

}  // namespace
}  // namespace datalogo
