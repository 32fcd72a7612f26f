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

BENCHMARK(BM_Apsp<false>)->Name("apsp_naive")->Arg(32)->Arg(64)->Arg(128);
BENCHMARK(BM_Apsp<true>)->Name("apsp_seminaive")->Arg(32)->Arg(64)->Arg(128);
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
  datalogo::WriteJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
