// Vectorized value-plane determinism: with value_kernel = kSimd the
// batched join computes ⊗ products, ground residual masks and head
// emission through the SemiringSimdTraits kernels — and fixpoints,
// `work` and every index counter must stay bit-identical to the scalar
// reference across value kernels × scan kernels × tiers × threads.
// values_batched() is the only counter allowed to move: it
// equals the number of head contributions the scalar path would merge
// (counted BEFORE ⊕-coalescing) under (scan, values) = (simd, simd) on
// an opted-in semiring, and is 0 under either scalar kernel.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/datalogo.h"

namespace datalogo {
namespace {

constexpr const char* kLinearTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

constexpr const char* kOutDegree = R"(
  edb E/2.
  idb D/1.
  D(X) :- E(X,Z).
)";

template <Pops P>
struct ValueRun {
  EvalResult<P> eval;
  uint64_t index_builds = 0;
  uint64_t index_hits = 0;
  uint64_t hash_probes = 0;
  uint64_t direct_probes = 0;
  uint64_t join_batched = 0;
  uint64_t values_batched = 0;
};

template <Pops P>
ValueRun<P> RunValue(const Program& prog, const EdbInstance<P>& edb,
                     bool semi, const EngineOptions& opts) {
  Engine<P> engine(prog, edb, opts);
  EvalResult<P> eval = [&] {
    if constexpr (CompleteDistributiveDioid<P>) {
      return semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
    } else {
      return engine.Naive(1 << 20);  // no ⊖: semi-naive unavailable
    }
  }();
  ValueRun<P> out{std::move(eval)};
  out.index_builds = engine.index_builds();
  out.index_hits = engine.index_hits();
  out.hash_probes = engine.hash_probes();
  out.direct_probes = engine.direct_probes();
  out.join_batched = engine.join_batched_rows();
  out.values_batched = engine.values_batched();
  EXPECT_TRUE(out.eval.converged);
  // The value plane only exists inside the batched join kernel, and an
  // opted-out semiring or scalar value kernel must never touch it.
  if (opts.scan_kernel != ScanKernel::kSimd ||
      opts.value_kernel != ScanKernel::kSimd || !VectorizedValuePlane<P>) {
    EXPECT_EQ(out.values_batched, 0u);
  }
  return out;
}

template <Pops P>
void ExpectSameFixpointAndTrace(const ValueRun<P>& ref,
                                const ValueRun<P>& got) {
  EXPECT_TRUE(got.eval.idb.Equals(ref.eval.idb));
  EXPECT_EQ(got.eval.steps, ref.eval.steps);
  EXPECT_EQ(got.eval.work, ref.eval.work);
  EXPECT_EQ(got.index_builds, ref.index_builds);
  EXPECT_EQ(got.index_hits, ref.index_hits);
}

template <Pops P, typename Lift>
EdbInstance<P> GridEdb(const Program& prog, Domain& dom, Lift&& lift) {
  Graph g = GridGraph(8, 8);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  return edb;
}

/// The four (scan, values) kernel combinations; only (simd, simd)
/// activates the value plane.
const std::pair<ScanKernel, ScanKernel> kKernelCross[] = {
    {ScanKernel::kScalar, ScanKernel::kScalar},
    {ScanKernel::kScalar, ScanKernel::kSimd},
    {ScanKernel::kSimd, ScanKernel::kScalar},
    {ScanKernel::kSimd, ScanKernel::kSimd},
};

template <Pops P, typename Lift>
void ExpectValueKernelEquivalentOnGrid(Lift&& lift) {
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  EdbInstance<P> edb = GridEdb<P>(prog, dom, lift);
  const EngineOptions ref_opts{.scan_kernel = ScanKernel::kScalar,
                               .value_kernel = ScanKernel::kScalar};
  for (bool semi : {false, true}) {
    if (semi && !CompleteDistributiveDioid<P>) continue;  // ℕ, R+: no ⊖
    SCOPED_TRACE(semi ? "semi" : "naive");
    ValueRun<P> ref = RunValue(prog, edb, semi, ref_opts);
    for (const auto& [scan, values] : kKernelCross) {
      SCOPED_TRACE((scan == ScanKernel::kSimd ? "scan=simd" : "scan=scalar"));
      SCOPED_TRACE(
          (values == ScanKernel::kSimd ? "values=simd" : "values=scalar"));
      const EngineOptions opts{.scan_kernel = scan, .value_kernel = values};
      ValueRun<P> got = RunValue(prog, edb, semi, opts);
      ExpectSameFixpointAndTrace(ref, got);
      if (scan == ScanKernel::kSimd && values == ScanKernel::kSimd &&
          VectorizedValuePlane<P>) {
        EXPECT_GT(got.values_batched, 0u);
      }
    }
  }
}

TEST(EngineValuePlane, TropicalApspGridMatchesScalarReference) {
  ExpectValueKernelEquivalentOnGrid<TropS>(
      [](const Edge& e) { return e.weight; });
}

TEST(EngineValuePlane, TropNatHopCountsMatchScalarReference) {
  ExpectValueKernelEquivalentOnGrid<TropNatS>(
      [](const Edge&) { return uint64_t{1}; });
}

TEST(EngineValuePlane, BooleanReachabilityMatchesScalarReference) {
  ExpectValueKernelEquivalentOnGrid<BoolS>([](const Edge&) { return true; });
}

TEST(EngineValuePlane, NatPathCountingMatchesScalarReference) {
  // The grid is a DAG, so ℕ path counting converges; the saturating
  // multiply's hoisted-threshold kernel must reproduce N::Times exactly.
  ExpectValueKernelEquivalentOnGrid<NatS>(
      [](const Edge&) { return uint64_t{1}; });
}

TEST(EngineValuePlane, RealPlusPathWeightsMatchScalarReference) {
  // R+ vectorizes ⊗ but must NOT ⊕-coalesce (kExactPlusFold = false):
  // the fixpoint still has to be bit-identical to the scalar merge
  // sequence.
  ExpectValueKernelEquivalentOnGrid<RealPlusS>(
      [](const Edge&) { return 0.5; });
}

TEST(EngineValuePlane, ValuesBatchedGoldenAcrossTiersAndThreads) {
  // The thread-invariance pin: under (simd, simd), values_batched is a
  // pure function of the join trace — the same golden constant at every
  // tier and thread count; 0 the moment either kernel is scalar.
  Domain dom;
  auto prog = ParseProgram(kLinearTc, &dom).value();
  EdbInstance<TropS> edb =
      GridEdb<TropS>(prog, dom, [](const Edge& e) { return e.weight; });

  uint64_t golden_naive = 0;
  uint64_t golden_semi = 0;
  for (IndexKind kind :
       {IndexKind::kHash, IndexKind::kDirect, IndexKind::kAuto}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const EngineOptions opts{.num_threads = threads,
                               .index_kind = kind,
                               .scan_kernel = ScanKernel::kSimd,
                               .value_kernel = ScanKernel::kSimd};
      ValueRun<TropS> naive = RunValue(prog, edb, /*semi=*/false, opts);
      ValueRun<TropS> semi = RunValue(prog, edb, /*semi=*/true, opts);
      EXPECT_GT(naive.values_batched, 0u);
      EXPECT_GT(semi.values_batched, 0u);
      if (golden_naive == 0) {
        golden_naive = naive.values_batched;
        golden_semi = semi.values_batched;
      }
      EXPECT_EQ(naive.values_batched, golden_naive);
      EXPECT_EQ(semi.values_batched, golden_semi);
      // Scalar value kernel under the same config: same fixpoint, zero
      // value-plane traffic (asserted inside RunValue).
      EngineOptions scalar_vals = opts;
      scalar_vals.value_kernel = ScanKernel::kScalar;
      ValueRun<TropS> sv = RunValue(prog, edb, /*semi=*/true, scalar_vals);
      ExpectSameFixpointAndTrace(semi, sv);
    }
  }
}

TEST(EngineValuePlane, ValuesBatchedCountsEmittedRowsExactly) {
  // Out-degree support over Trop-ℕ: every E row emits exactly one head
  // contribution (no residual, no zero products), so under semi-naive —
  // which visits the non-recursive rule once — values_batched must equal
  // |E|, counted pre-coalesce. The rule's consecutive same-source rows
  // exercise the ⊕-coalescing fold (adjacent duplicate head keys), which
  // must not change the stored values.
  Domain dom;
  auto prog = ParseProgram(kOutDegree, &dom).value();
  Graph g = GridGraph(8, 8);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<TropNatS> edb(prog);
  LoadEdges<TropNatS>(g, ids, [](const Edge&) { return uint64_t{1}; },
                      &edb.pops(prog.FindPredicate("E")));
  const uint64_t edges = edb.pops(prog.FindPredicate("E")).support_size();
  ASSERT_GT(edges, 0u);

  const EngineOptions scalar_opts{.scan_kernel = ScanKernel::kScalar,
                                  .value_kernel = ScanKernel::kScalar};
  const EngineOptions simd_opts{.scan_kernel = ScanKernel::kSimd,
                                .value_kernel = ScanKernel::kSimd};
  ValueRun<TropNatS> ref = RunValue(prog, edb, /*semi=*/true, scalar_opts);
  ValueRun<TropNatS> got = RunValue(prog, edb, /*semi=*/true, simd_opts);
  ExpectSameFixpointAndTrace(ref, got);
  EXPECT_EQ(got.values_batched, edges);
}

TEST(EngineValuePlane, GroundResidualRunsAsBatchedMask) {
  // [Y != v0] over the innermost-bound Y compiles to a VecResidual (the
  // vectored drain filters by a column-vs-scalar mask); [Y != X] is
  // var-var and stays a per-row batched residual — one drain exercises
  // both paths, and every kernel combination must agree with the scalar
  // per-row re-grounding reference.
  constexpr const char* kFiltered = R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) * [Y != v0] ; T(X,Z) * E(Z,Y) * [Y != v0, Y != X].
  )";
  Domain dom;
  auto prog = ParseProgram(kFiltered, &dom).value();
  EdbInstance<TropS> edb =
      GridEdb<TropS>(prog, dom, [](const Edge& e) { return e.weight; });
  const EngineOptions ref_opts{.scan_kernel = ScanKernel::kScalar,
                               .value_kernel = ScanKernel::kScalar};
  ValueRun<TropS> ref = RunValue(prog, edb, /*semi=*/true, ref_opts);
  for (const auto& [scan, values] : kKernelCross) {
    const EngineOptions opts{.scan_kernel = scan, .value_kernel = values};
    ValueRun<TropS> got = RunValue(prog, edb, /*semi=*/true, opts);
    ExpectSameFixpointAndTrace(ref, got);
  }
}

TEST(EngineValuePlane, AlwaysFalseDisjunctKeepsWorkTraceButSkipsDrain) {
  // A residual decided false at compile time ([v0 = v1]) makes the
  // disjunct dead: it must keep the exact work/probe trace of its join
  // under every kernel combination (the batched drain short-circuits
  // instead of paying per-row checks) while emitting nothing — the
  // fixpoint equals the program without the dead disjunct, the work
  // exceeds it.
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
  Domain dom;
  auto dead_prog = ParseProgram(kDead, &dom).value();
  EdbInstance<TropS> dead_edb =
      GridEdb<TropS>(dead_prog, dom, [](const Edge& e) { return e.weight; });
  Domain dom2;
  auto live_prog = ParseProgram(kLive, &dom2).value();
  EdbInstance<TropS> live_edb =
      GridEdb<TropS>(live_prog, dom2, [](const Edge& e) { return e.weight; });

  const EngineOptions ref_opts{.scan_kernel = ScanKernel::kScalar,
                               .value_kernel = ScanKernel::kScalar};
  ValueRun<TropS> ref = RunValue(dead_prog, dead_edb, /*semi=*/true, ref_opts);
  ValueRun<TropS> live =
      RunValue(live_prog, live_edb, /*semi=*/true, ref_opts);
  EXPECT_EQ(ref.eval.idb.idb(dead_prog.FindPredicate("T")).support_size(),
            live.eval.idb.idb(live_prog.FindPredicate("T")).support_size());
  EXPECT_GT(ref.eval.work, live.eval.work);
  for (const auto& [scan, values] : kKernelCross) {
    const EngineOptions opts{.scan_kernel = scan, .value_kernel = values};
    ValueRun<TropS> got = RunValue(dead_prog, dead_edb, /*semi=*/true, opts);
    ExpectSameFixpointAndTrace(ref, got);
  }
}

}  // namespace
}  // namespace datalogo
