// E9/E10 — Section 6: semi-naive vs naive evaluation. The table reports
// join-work (generator entries touched) on chains, random graphs and
// grids, for linear TC (B), quadratic TC (Ex. 6.6) and SSSP (Trop+);
// the timing section sweeps graph size.
#include "bench/bench_util.h"

namespace datalogo {
namespace {

constexpr const char* kQuadTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * T(Z,Y).
)";

struct WorkRow {
  const char* name;
  uint64_t naive_work;
  uint64_t semi_work;
  bool agree;
};

template <Pops P>
  requires CompleteDistributiveDioid<P> && NaturallyOrderedSemiring<P>
WorkRow Measure(const char* name, const char* text, const Graph& g,
                auto&& lift) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  Engine<P> engine(prog, edb);
  auto naive = engine.Naive(1 << 20);
  auto semi = engine.SemiNaive(1 << 20);
  return {name, naive.work, semi.work, naive.idb.Equals(semi.idb)};
}

void PrintTables() {
  Banner("E9/E10 bench_seminaive",
         "Sec. 6: join-work of naive vs semi-naive (Thm 6.4/6.5, Ex. 6.6)");
  std::vector<WorkRow> rows;
  {
    Graph chain(80);
    for (int i = 0; i + 1 < 80; ++i) chain.AddEdge(i, i + 1, 1.0);
    rows.push_back(Measure<BoolS>("TC/B chain-80", R"(
        edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).)",
                                  chain, [](const Edge&) { return true; }));
    rows.push_back(Measure<BoolS>("TCq/B chain-80", kQuadTc, chain,
                                  [](const Edge&) { return true; }));
    rows.push_back(Measure<TropS>("SSSP-ish/Trop chain-80", R"(
        edb E/2. idb L/1. L(X) :- [X = v0] ; L(Z) * E(Z, X).)",
                                  chain,
                                  [](const Edge& e) { return e.weight; }));
  }
  {
    Graph g = RandomGraph(60, 180, /*seed=*/5);
    rows.push_back(Measure<BoolS>("TC/B random-60", R"(
        edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).)",
                                  g, [](const Edge&) { return true; }));
    rows.push_back(Measure<TropS>("APSP/Trop random-60", R"(
        edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).)",
                                  g,
                                  [](const Edge& e) { return e.weight; }));
  }
  {
    Graph g = GridGraph(8, 8);
    rows.push_back(Measure<TropS>("APSP/Trop grid-8x8", R"(
        edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).)",
                                  g,
                                  [](const Edge& e) { return e.weight; }));
  }
  // Ablation: Algorithm 3 without the differential rule (Sec. 6.3).
  {
    Domain dom;
    auto prog = ApspProgram(&dom).value();
    Graph g = RandomGraph(60, 180, /*seed=*/5);
    std::vector<ConstId> ids = InternVertices(60, &dom);
    EdbInstance<TropS> edb(prog);
    LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                     &edb.pops(prog.FindPredicate("E")));
    Engine<TropS> engine(prog, edb);
    auto nodiff = engine.SemiNaiveNonDifferential(1 << 20);
    rows.push_back(WorkRow{"ablation: no diff rule", nodiff.work,
                           engine.SemiNaive(1 << 20).work, true});
  }
  std::printf("%-24s %-14s %-14s %-8s %-6s\n", "workload", "naive-work",
              "semi-work", "speedup", "agree");
  for (const WorkRow& r : rows) {
    std::printf("%-24s %-14llu %-14llu %-8.1fx %-6s\n", r.name,
                static_cast<unsigned long long>(r.naive_work),
                static_cast<unsigned long long>(r.semi_work),
                static_cast<double>(r.naive_work) /
                    static_cast<double>(r.semi_work ? r.semi_work : 1),
                r.agree ? "yes" : "NO");
  }
  std::printf(
      "(shape: semi-naive wins everywhere; the factor grows with the\n"
      " iteration depth — the paper's motivation for Algorithm 3)\n");
}

// Parallel ICO step: wall time per thread count on the APSP workload,
// with a determinism cross-check against the sequential engine. On a
// single hardware core this table measures the prepare/reduce overhead
// of the parallel path; on a multi-core machine it shows the scaling.
void PrintParallelTable() {
  Banner("parallel ICO step (EngineOptions::num_threads)",
         "rule/shard-parallel join execution with deterministic merge");
  const bool smoke = BenchSmokeMode();
  const int n = smoke ? 48 : 128;
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> seq(prog, edb);
  auto base_naive = seq.Naive(1 << 20);
  auto base_semi = seq.SemiNaive(1 << 20);
  std::printf("%-10s %-14s %-14s %-8s %-6s (APSP/Trop random-%d)\n",
              "threads", "naive-ms", "semi-ms", "work=", "agree", n);
  for (int threads : BenchThreadCounts()) {
    Engine<TropS> engine(prog, edb,
                         EngineOptions{.num_threads = threads});
    double naive_ms = 1e300, semi_ms = 1e300;
    EvalResult<TropS> naive{IdbInstance<TropS>(prog)};
    EvalResult<TropS> semi{IdbInstance<TropS>(prog)};
    for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
      naive_ms = std::min(naive_ms, WallMs([&] {
                            naive = engine.Naive(1 << 20);
                          }));
      semi_ms = std::min(semi_ms, WallMs([&] {
                           semi = engine.SemiNaive(1 << 20);
                         }));
    }
    const bool agree = naive.idb.Equals(base_naive.idb) &&
                       semi.idb.Equals(base_semi.idb);
    const bool work_eq =
        naive.work == base_naive.work && semi.work == base_semi.work;
    std::printf("%-10d %-14.2f %-14.2f %-8s %-6s\n", threads, naive_ms,
                semi_ms, work_eq ? "yes" : "NO", agree ? "yes" : "NO");
  }
  std::printf(
      "(fixpoints and work counters are identical at every thread count —\n"
      " the deterministic (disjunct, shard) merge order replays the\n"
      " sequential head-merge sequence)\n");
}

// Index tiers and scan kernels: the hash index is the general tier;
// dense single-column keys get an offset-addressed direct tier (kAuto
// detects density, kDirect forces it), and index-build column scans run
// through the SIMD kernels in src/core/simd.h. Every combination is
// pinned to the same fixpoint, work counter and four index counters —
// only wall time and the probe counters (hash vs direct lookups) move.
void PrintIndexTierTable() {
  Banner("index tiers & scan kernels (EngineOptions::index_kind/scan_kernel)",
         "dense-id direct indexes + SIMD column scans, bit-identical");
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 3;
  const int n = smoke ? 48 : 128;
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  // Reference: the pre-tier behaviour (hash everywhere, scalar scans).
  Engine<TropS> ref(prog, edb,
                    EngineOptions{.index_kind = IndexKind::kHash,
                                  .scan_kernel = ScanKernel::kScalar});
  auto base = ref.SemiNaive(1 << 20);
  std::printf("%-14s %-10s %-12s %-13s %-12s %-7s %-6s (APSP/Trop random-%d"
              ", simd=%s)\n",
              "index/scan", "semi-ms", "hash-probes", "direct-probes",
              "incr-appends", "pinned", "agree", n, simd::IsaName());
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kDirect,
                         IndexKind::kAuto}) {
    for (ScanKernel scan : {ScanKernel::kScalar, ScanKernel::kSimd}) {
      const EngineOptions opts{.index_kind = kind, .scan_kernel = scan};
      double best_ms = 1e300;
      EvalResult<TropS> r{IdbInstance<TropS>(prog)};
      uint64_t hash_probes = 0, direct_probes = 0, incr = 0;
      bool pinned = false;
      for (int rep = 0; rep < reps; ++rep) {
        Engine<TropS> engine(prog, edb, opts);
        EvalResult<TropS> cur{IdbInstance<TropS>(prog)};
        double ms = WallMs([&] { cur = engine.SemiNaive(1 << 20); });
        if (ms < best_ms) {
          best_ms = ms;
          hash_probes = engine.hash_probes();
          direct_probes = engine.direct_probes();
          incr = engine.idx_incremental_appends();
          pinned = cur.work == base.work &&
                   engine.index_builds() == ref.index_builds() &&
                   engine.index_hits() == ref.index_hits() &&
                   engine.idb_index_builds() == ref.idb_index_builds() &&
                   engine.idb_index_hits() == ref.idb_index_hits();
          r = std::move(cur);
        }
      }
      std::string config = std::string(IndexKindName(kind)) + "/" +
                           ScanKernelName(scan);
      std::printf("%-14s %-10.2f %-12llu %-13llu %-12llu %-7s %-6s\n",
                  config.c_str(), best_ms,
                  static_cast<unsigned long long>(hash_probes),
                  static_cast<unsigned long long>(direct_probes),
                  static_cast<unsigned long long>(incr),
                  pinned ? "yes" : "NO",
                  r.idb.Equals(base.idb) ? "yes" : "NO");
    }
  }
  std::printf(
      "(direct/auto route the dense APSP key lookups off the hash map —\n"
      " hash-probes drops to the Boolean-condition remainder — and the\n"
      " Clear+append delta cycle keeps incr-appends nonzero; `work` and\n"
      " the four index counters are pinned across every combination)\n");
}

// Scalar vs batched join kernel: the same APSP workload driven through
// the row-at-a-time reference join and the SIMD batched bind/check join
// (gather/compare-mask/compress over kJoinBatch-row chunks of each entry
// list). Fixpoints, work, and join_batched_rows' invariant (== work when
// batched, 0 when scalar) hold at every thread count — only wall time
// moves.
void PrintJoinKernelTable() {
  Banner("scalar vs batched join kernel (EngineOptions::scan_kernel)",
         "SIMD batched bind/check over entry lists, bit-identical");
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 3;
  const int n = smoke ? 48 : 128;
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> ref(prog, edb,
                    EngineOptions{.scan_kernel = ScanKernel::kScalar});
  auto base = ref.SemiNaive(1 << 20);
  std::printf("%-14s %-10s %-10s %-16s %-7s %-6s (APSP/Trop random-%d)\n",
              "join-kernel", "threads", "semi-ms", "batched-rows", "pinned",
              "agree", n);
  for (ScanKernel scan : {ScanKernel::kScalar, ScanKernel::kSimd}) {
    for (int threads : {1, 4}) {
      const EngineOptions opts{.num_threads = threads, .scan_kernel = scan};
      double best_ms = 1e300;
      EvalResult<TropS> r{IdbInstance<TropS>(prog)};
      uint64_t batched = 0;
      for (int rep = 0; rep < reps; ++rep) {
        Engine<TropS> engine(prog, edb, opts);
        EvalResult<TropS> cur{IdbInstance<TropS>(prog)};
        double ms = WallMs([&] { cur = engine.SemiNaive(1 << 20); });
        if (ms < best_ms) {
          best_ms = ms;
          batched = engine.join_batched_rows();
          r = std::move(cur);
        }
      }
      const bool pinned =
          r.work == base.work &&
          (scan == ScanKernel::kSimd ? batched == r.work : batched == 0);
      std::printf("%-14s %-10d %-10.2f %-16llu %-7s %-6s\n",
                  JoinKernelName(scan).c_str(), threads, best_ms,
                  static_cast<unsigned long long>(batched),
                  pinned ? "yes" : "NO",
                  r.idb.Equals(base.idb) ? "yes" : "NO");
    }
  }
  std::printf(
      "(the batched kernel drains check-free inner levels in one tight\n"
      " loop and filters repeated-variable checks with gathered column\n"
      " compares; survivors keep entry-list order, so fixpoint, work and\n"
      " merge order replay the scalar run exactly)\n");
}

// Scalar vs vectorized value plane: the batched join with per-row ⊗ and
// head merges (values=scalar) against the SemiringSimdTraits kernels
// (values=simd): SIMD ⊗ products per survivor batch, pre-hashed head
// keys, ⊕-coalesced adjacent duplicates. values_batched counts the head
// contributions the scalar path would merge (pre-coalesce) — nonzero
// exactly when both kernels are kSimd — while fixpoint and work stay
// pinned to the scalar-scan reference.
void PrintValueKernelTable() {
  Banner("scalar vs vectorized value plane (EngineOptions::value_kernel)",
         "SIMD semiring ⊗/⊕ kernels + batched head emission, bit-identical");
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 3;
  const int n = smoke ? 48 : 128;
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> ref(prog, edb,
                    EngineOptions{.scan_kernel = ScanKernel::kScalar,
                                  .value_kernel = ScanKernel::kScalar});
  auto base = ref.SemiNaive(1 << 20);
  struct Config {
    ScanKernel scan;
    ScanKernel values;
  };
  const Config configs[] = {
      {ScanKernel::kScalar, ScanKernel::kScalar},
      {ScanKernel::kSimd, ScanKernel::kScalar},
      {ScanKernel::kSimd, ScanKernel::kSimd},
  };
  std::printf("%-22s %-10s %-16s %-7s %-6s (APSP/Trop random-%d)\n",
              "join/value-kernel", "semi-ms", "values-batched", "pinned",
              "agree", n);
  for (const Config& c : configs) {
    const EngineOptions opts{.scan_kernel = c.scan, .value_kernel = c.values};
    double best_ms = 1e300;
    EvalResult<TropS> r{IdbInstance<TropS>(prog)};
    uint64_t vb = 0;
    for (int rep = 0; rep < reps; ++rep) {
      Engine<TropS> engine(prog, edb, opts);
      EvalResult<TropS> cur{IdbInstance<TropS>(prog)};
      double ms = WallMs([&] { cur = engine.SemiNaive(1 << 20); });
      if (ms < best_ms) {
        best_ms = ms;
        vb = engine.values_batched();
        r = std::move(cur);
      }
    }
    const bool active =
        c.scan == ScanKernel::kSimd && c.values == ScanKernel::kSimd;
    const bool pinned = r.work == base.work && (active ? vb > 0 : vb == 0);
    std::string config = JoinKernelName(c.scan) + "/" +
                         ValueKernelName<TropS>(c.scan, c.values);
    std::printf("%-22s %-10.2f %-16llu %-7s %-6s\n", config.c_str(), best_ms,
                static_cast<unsigned long long>(vb), pinned ? "yes" : "NO",
                r.idb.Equals(base.idb) ? "yes" : "NO");
  }
  std::printf(
      "(the vectorized plane gathers the value column per survivor batch,\n"
      " computes all ⊗ products in one kernel call and ⊕-coalesces\n"
      " adjacent duplicate head keys before the hash probe; min's tie\n"
      " rule and ±0.0 are replicated exactly, so fixpoint, work and merge\n"
      " results replay the scalar run bit for bit)\n");
}

// Parity-split shortest paths: a wide multi-SCC stratified program — a
// base group, a mutually recursive Odd/Even group (whose deltas drain in
// alternation, so the triggered set skips one rule per round), and a
// downstream recursive closure group.
constexpr const char* kParityPaths = R"(
  edb E/2.
  idb Odd/2. idb Even/2. idb T/2.
  Odd(X,Y) :- E(X,Y).
  Odd(X,Y) :- Even(X,Z) * E(Z,Y).
  Even(X,Y) :- Odd(X,Z) * E(Z,Y).
  T(X,Y) :- Even(X,Y) ; Odd(X,Y) ; T(X,Z) * T(Z,Y).
)";

template <bool kSemi>
void BM_Apsp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb);
  for (auto _ : state) {
    auto r = kSemi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
}

template <bool kSemi>
void BM_QuadraticTc(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ParseProgram(kQuadTc, &dom).value();
  Graph g = RandomGraph(n, 2 * n, /*seed=*/11);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<BoolS> edb(prog);
  LoadEdges<BoolS>(g, ids, [](const Edge&) { return true; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<BoolS> engine(prog, edb);
  for (auto _ : state) {
    auto r = kSemi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
}

/// Semi-naive APSP; the counters report how many indexes the engine
/// built and how many lookups the index cache served.
void BM_ApspCached(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb);
  for (auto _ : state) {
    auto r = engine.SemiNaive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
  // Per-iteration averages: totals accumulate across however many
  // iterations the framework chose.
  state.counters["index_builds"] =
      benchmark::Counter(static_cast<double>(engine.index_builds()),
                         benchmark::Counter::kAvgIterations);
  state.counters["index_hits"] =
      benchmark::Counter(static_cast<double>(engine.index_hits()),
                         benchmark::Counter::kAvgIterations);
}

/// APSP with the parallel ICO step: range(0) = n, range(1) = threads.
template <bool kSemi>
void BM_ApspMt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb, EngineOptions{.num_threads = threads});
  for (auto _ : state) {
    auto r = kSemi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
}

BENCHMARK(BM_Apsp<false>)->Name("apsp_naive")->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_Apsp<true>)->Name("apsp_seminaive")->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_ApspMt<false>)
    ->Name("apsp_naive_mt")
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8});
BENCHMARK(BM_ApspMt<true>)
    ->Name("apsp_seminaive_mt")
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({128, 4})
    ->Args({128, 8});
/// Multi-group parity semi-naive: range(0) = n; rules_skipped reports
/// the triggered-set savings of the reliance-group schedule.
void BM_ParitySemiNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ParseProgram(kParityPaths, &dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb);
  for (auto _ : state) {
    auto r = engine.SemiNaive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
  state.counters["rules_skipped"] =
      benchmark::Counter(static_cast<double>(engine.rules_skipped()),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_ParitySemiNaive)->Name("parity_seminaive")->Arg(128);
BENCHMARK(BM_QuadraticTc<false>)->Name("quad_tc_naive")->Arg(32)->Arg(64);
BENCHMARK(BM_QuadraticTc<true>)->Name("quad_tc_seminaive")->Arg(32)->Arg(64);
BENCHMARK(BM_ApspCached)->Name("apsp_cached")->Arg(64)->Arg(128);

/// APSP semi-naive per index tier and scan kernel: range(0) = n,
/// range(1) = IndexKind, range(2) = ScanKernel — each piece of the
/// tiered-index subsystem benchmarkable in isolation.
void BM_ApspIndexTier(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto kind = static_cast<IndexKind>(state.range(1));
  const auto scan = static_cast<ScanKernel>(state.range(2));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& e) { return e.weight; },
                   &edb.pops(prog.FindPredicate("E")));
  Engine<TropS> engine(prog, edb,
                       EngineOptions{.index_kind = kind, .scan_kernel = scan});
  for (auto _ : state) {
    auto r = engine.SemiNaive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
  state.SetLabel(std::string(IndexKindName(kind)) + "/" +
                 ScanKernelName(scan));
  state.counters["hash_probes"] =
      benchmark::Counter(static_cast<double>(engine.hash_probes()),
                         benchmark::Counter::kAvgIterations);
  state.counters["direct_probes"] =
      benchmark::Counter(static_cast<double>(engine.direct_probes()),
                         benchmark::Counter::kAvgIterations);
}

BENCHMARK(BM_ApspIndexTier)
    ->Name("apsp_seminaive_index")
    ->Args({128, static_cast<int>(datalogo::IndexKind::kHash),
            static_cast<int>(datalogo::ScanKernel::kScalar)})
    ->Args({128, static_cast<int>(datalogo::IndexKind::kHash),
            static_cast<int>(datalogo::ScanKernel::kSimd)})
    ->Args({128, static_cast<int>(datalogo::IndexKind::kDirect),
            static_cast<int>(datalogo::ScanKernel::kScalar)})
    ->Args({128, static_cast<int>(datalogo::IndexKind::kDirect),
            static_cast<int>(datalogo::ScanKernel::kSimd)})
    ->Args({128, static_cast<int>(datalogo::IndexKind::kAuto),
            static_cast<int>(datalogo::ScanKernel::kSimd)});

// Machine-readable perf journal: BENCH_seminaive.json in the working
// directory, with wall ms / iterations / work / index builds (total and
// IDB/delta-attributed) per engine, so perf regressions surface in the
// trajectory without scraping stdout.
void WriteJson() {
  const bool smoke = BenchSmokeMode();
  WriteEngineJson<TropS>("seminaive", "APSP/Trop random graph (seed 9, m = 3n)",
                         [](Domain* dom) { return ApspProgram(dom); },
                         [](int n) { return RandomGraph(n, 3 * n, /*seed=*/9); },
                         [](const Edge& e) { return e.weight; },
                         {smoke ? 32 : 64, smoke ? 64 : 128});
  // Multi-SCC stratified workload: the seminaive rows journal nonzero
  // rules_skipped (the Odd/Even deltas drain in alternation).
  WriteEngineJson<TropS>("seminaive_parity",
                         "parity-split APSP/Trop random graph (seed 9, m = 3n)",
                         [](Domain* dom) {
                           return ParseProgram(kParityPaths, dom);
                         },
                         [](int n) { return RandomGraph(n, 3 * n, /*seed=*/9); },
                         [](const Edge& e) { return e.weight; },
                         {smoke ? 32 : 64, smoke ? 64 : 128});
}

}  // namespace
}  // namespace datalogo

int main(int argc, char** argv) {
  datalogo::PrintTables();
  datalogo::PrintParallelTable();
  datalogo::PrintIndexTierTable();
  datalogo::PrintJoinKernelTable();
  datalogo::PrintValueKernelTable();
  datalogo::WriteJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
