// Tiered-index determinism: the engine's fixpoints, `work`, and all four
// index-cache counters must be bit-identical across every index tier
// (--index=hash|direct|auto) — the tiers may only move probe *cost*
// (visible through the separate hash_probes/direct_probes counters). Workloads
// are the equivalence-suite goldens (Boolean / Tropical / PosBool
// provenance), each run naive and semi-naive.
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

Graph ChainGraph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.AddEdge(i, i + 1, 1.0);
  return g;
}

/// The counters that must be pinned across every engine configuration.
struct PinnedCounters {
  uint64_t work = 0;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t idb_index_builds = 0;
  uint64_t idb_index_hits = 0;
  bool operator==(const PinnedCounters&) const = default;
};

std::ostream& operator<<(std::ostream& os, const PinnedCounters& c) {
  return os << "{work=" << c.work << " builds=" << c.index_builds
            << " hits=" << c.index_hits << " idb_builds=" << c.idb_index_builds
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
};

template <Pops P>
RunResult<P> RunOnce(const Program& prog, const EdbInstance<P>& edb,
                     bool semi, const EngineOptions& opts) {
  Engine<P> engine(prog, edb, opts);
  RunResult<P> out{semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20)};
  out.pinned = {out.eval.work, engine.index_builds(), engine.index_hits(),
                engine.idb_index_builds(), engine.idb_index_hits()};
  out.hash_probes = engine.hash_probes();
  out.direct_probes = engine.direct_probes();
  out.incremental_appends = engine.idx_incremental_appends();
  out.join_batched_rows = engine.join_batched_rows();
  // The join-kernel totality invariant: every visited entry is decoded
  // through the batched kernel.
  EXPECT_EQ(out.join_batched_rows, out.eval.work);
  return out;
}

std::string ConfigName(IndexKind kind) {
  return kind == IndexKind::kHash     ? "hash"
         : kind == IndexKind::kDirect ? "direct"
                                      : "auto";
}

/// Runs the reference configuration (hash tier), then every tier of
/// {hash,direct,auto} on a fresh engine, asserting each run's fixpoint
/// and pinned counters match the reference exactly — for naive AND
/// semi-naive.
template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectBitIdenticalAcrossConfigs(const Program& prog,
                                     const EdbInstance<P>& edb,
                                     uint64_t golden_naive_work,
                                     uint64_t golden_semi_work) {
  const EngineOptions ref_opts{.index_kind = IndexKind::kHash};
  RunResult<P> ref_naive = RunOnce(prog, edb, /*semi=*/false, ref_opts);
  RunResult<P> ref_semi = RunOnce(prog, edb, /*semi=*/true, ref_opts);
  ASSERT_TRUE(ref_naive.eval.converged);
  ASSERT_TRUE(ref_semi.eval.converged);
  EXPECT_EQ(ref_naive.pinned.work, golden_naive_work);
  EXPECT_EQ(ref_semi.pinned.work, golden_semi_work);
  // The reference tier hashes everything — including driver lookups.
  EXPECT_EQ(ref_naive.direct_probes, 0u);
  EXPECT_EQ(ref_semi.direct_probes, 0u);

  for (IndexKind kind :
       {IndexKind::kHash, IndexKind::kDirect, IndexKind::kAuto}) {
    SCOPED_TRACE(ConfigName(kind));
    const EngineOptions opts{.index_kind = kind};
    RunResult<P> naive = RunOnce(prog, edb, /*semi=*/false, opts);
    RunResult<P> semi = RunOnce(prog, edb, /*semi=*/true, opts);
    ASSERT_TRUE(naive.eval.converged);
    ASSERT_TRUE(semi.eval.converged);
    EXPECT_TRUE(naive.eval.idb.Equals(ref_naive.eval.idb));
    EXPECT_TRUE(semi.eval.idb.Equals(ref_semi.eval.idb));
    EXPECT_EQ(naive.pinned, ref_naive.pinned);
    EXPECT_EQ(semi.pinned, ref_semi.pinned);
    if (kind == IndexKind::kHash) {
      // Forced hash must never take the offset-addressed path.
      EXPECT_EQ(naive.direct_probes, 0u);
      EXPECT_EQ(semi.direct_probes, 0u);
    }
  }
}

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
void ExpectBitIdenticalOnGraph(const char* text, const Graph& g, auto&& lift,
                               uint64_t golden_naive_work,
                               uint64_t golden_semi_work) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  ExpectBitIdenticalAcrossConfigs(prog, edb, golden_naive_work,
                                  golden_semi_work);
}

TEST(EngineIndexTiers, BooleanLinearTcChain80) {
  ExpectBitIdenticalOnGraph<BoolS>(kLinearTc, ChainGraph(80),
                                   [](const Edge&) { return true; },
                                   /*golden_naive_work=*/338120,
                                   /*golden_semi_work=*/6320);
}

TEST(EngineIndexTiers, BooleanQuadraticTcChain80) {
  // Two IDB occurrences: exercises the t_new/t_old/delta index triple
  // (and its incremental refresh) under every tier.
  ExpectBitIdenticalOnGraph<BoolS>(kQuadraticTc, ChainGraph(80),
                                   [](const Edge&) { return true; },
                                   /*golden_naive_work=*/244823,
                                   /*golden_semi_work=*/95925);
}

TEST(EngineIndexTiers, TropicalSsspChain80) {
  ExpectBitIdenticalOnGraph<TropS>(kSssp, ChainGraph(80),
                                   [](const Edge& e) { return e.weight; },
                                   /*golden_naive_work=*/6479,
                                   /*golden_semi_work=*/159);
}

TEST(EngineIndexTiers, TropicalApspGrid8x8) {
  ExpectBitIdenticalOnGraph<TropS>(kLinearTc, GridGraph(8, 8),
                                   [](const Edge& e) { return e.weight; },
                                   /*golden_naive_work=*/33936,
                                   /*golden_semi_work=*/3248);
}

TEST(EngineIndexTiers, ProvenancePosBoolChain6) {
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
  ExpectBitIdenticalAcrossConfigs(prog, edb, /*golden_naive_work=*/125,
                                  /*golden_semi_work=*/30);
}

TEST(EngineIndexTiers, RepeatedVariableChecksChordalCycle12) {
  // Repeated-variable atoms (T(X,X), E(X,X)) compile to check ops — the
  // one join-program construct where the batched kernel's vector
  // compare/compress path does real filtering work, so this golden pins
  // `work` (which counts check-failing entries too) across every tier.
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
                                   /*golden_semi_work=*/554);
}

TEST(EngineIndexTiers, DirectTierReplacesHashProbesOnDenseKeys) {
  // Vertex ids are interned densely, so the auto policy must route the
  // E(Z,Y) generator lookups through the offset-addressed tier: the
  // hash-probe count drops (to the hash-forced run's driver-only share)
  // while the total visit trace — `work` — stays pinned.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  Graph g = GridGraph(8, 8);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));

  const EngineOptions hash_opts{.index_kind = IndexKind::kHash};
  const EngineOptions auto_opts{.index_kind = IndexKind::kAuto};
  RunResult<TropS> hashed = RunOnce(prog, edb, /*semi=*/true, hash_opts);
  RunResult<TropS> tiered = RunOnce(prog, edb, /*semi=*/true, auto_opts);

  EXPECT_EQ(hashed.pinned, tiered.pinned);
  EXPECT_GT(hashed.hash_probes, 0u);
  EXPECT_GT(tiered.direct_probes, 0u);
  EXPECT_LT(tiered.hash_probes, hashed.hash_probes);
  EXPECT_EQ(hashed.direct_probes, 0u);
}

TEST(EngineIndexTiers, SemiNaiveRefreshesDeltaIndexesIncrementally) {
  // Each semi-naive round clears and refills delta; the cache must
  // refresh its delta indexes by re-appending rows, not by rebuilding
  // from scratch — visible as a nonzero incremental-append counter under
  // every tier (and a zero one for single-shot naive evaluation, whose
  // EDB indexes are built once and only ever hit).
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  Graph g = GridGraph(8, 8);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));

  for (IndexKind kind :
       {IndexKind::kHash, IndexKind::kDirect, IndexKind::kAuto}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const EngineOptions opts{.index_kind = kind};
    RunResult<TropS> semi = RunOnce(prog, edb, /*semi=*/true, opts);
    EXPECT_GT(semi.incremental_appends, 0u);
    RunResult<TropS> naive = RunOnce(prog, edb, /*semi=*/false, opts);
    EXPECT_EQ(naive.incremental_appends, 0u);
  }
}

}  // namespace
}  // namespace datalogo
