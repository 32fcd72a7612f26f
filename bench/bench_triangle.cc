// Triangle counting over the Naturals (bag) semiring: a wide, multi-join
// rule shape — three atoms joined in one sum-product — complementing the
// path-style recursion (APSP/SSSP/TC) the other benches cover. With every
// edge weighted 1, Tri(x,y,z) = E(x,y) ⊗ E(y,z) ⊗ E(z,x) counts each
// directed 3-cycle once per rotation, so Σ Tri = 3 · #directed-triangles.
#include "bench/bench_util.h"

namespace datalogo {
namespace {

constexpr const char* kTriangle = R"(
  edb E/2.
  idb Tri/3.
  Tri(X,Y,Z) :- E(X,Y) * E(Y,Z) * E(Z,X).
)";

Result<Program> TriangleProgram(Domain* dom) {
  return ParseProgram(kTriangle, dom);
}

/// Sum of Tri values = number of closed ordered walks of length 3 without
/// the start fixed — 3× the directed triangle count.
uint64_t TriangleMass(const EvalResult<NatS>& r, const Program& prog) {
  const Relation<NatS>& tri = r.idb.idb(prog.FindPredicate("Tri"));
  uint64_t total = 0;
  tri.ForEachRow([&](uint32_t row) { total += tri.ValueAt(row); });
  return total;
}

void PrintTable() {
  Banner("bench_triangle",
         "triangle counting over N (bag semantics) — wide 3-way join");
  std::printf("%-22s %-10s %-12s %-12s %-10s\n", "graph", "support",
              "sum(Tri)", "work", "steps");
  for (auto [n, m, seed] : {std::tuple{40, 240, 3}, std::tuple{80, 640, 3},
                            std::tuple{120, 1200, 3}}) {
    Domain dom;
    auto prog = TriangleProgram(&dom).value();
    Graph g = RandomGraph(n, m, seed);
    std::vector<ConstId> ids = InternVertices(n, &dom);
    EdbInstance<NatS> edb(prog);
    LoadEdges<NatS>(g, ids, [](const Edge&) { return uint64_t{1}; },
                    &edb.pops(prog.FindPredicate("E")));
    Engine<NatS> engine(prog, edb);
    auto r = engine.Naive(1 << 20);
    char name[32];
    std::snprintf(name, sizeof(name), "random-%d (m=%d)", n, m);
    std::printf("%-22s %-10llu %-12llu %-12llu %-10d\n", name,
                static_cast<unsigned long long>(r.idb.TotalSupport()),
                static_cast<unsigned long long>(TriangleMass(r, prog)),
                static_cast<unsigned long long>(r.work), r.steps);
  }
  std::printf(
      "(the rule is non-recursive: one productive ICO application reaches\n"
      " the fixpoint and a second confirms it — the cost is pure join\n"
      " work over the three-atom product)\n");
}

void BM_Triangle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = TriangleProgram(&dom).value();
  Graph g = RandomGraph(n, 8 * n, /*seed=*/3);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<NatS> edb(prog);
  LoadEdges<NatS>(g, ids, [](const Edge&) { return uint64_t{1}; },
                  &edb.pops(prog.FindPredicate("E")));
  Engine<NatS> engine(prog, edb);
  uint64_t mass = 0;
  for (auto _ : state) {
    auto r = engine.Naive(1 << 20);
    mass = TriangleMass(r, prog);
    benchmark::DoNotOptimize(mass);
  }
  state.counters["triangle_mass"] = static_cast<double>(mass);
}

BENCHMARK(BM_Triangle)->Name("triangle_naive")->Arg(64)->Arg(128)->Arg(256);

// Machine-readable perf journal, same BENCH_*.json schema as the other
// engine benches, with a naive and a seminaive row per size.
void WriteJson() {
  const bool smoke = BenchSmokeMode();
  WriteEngineJson<NatS>("triangle",
                        "triangle counting / N random graph (seed 3, m = 8n)",
                        [](Domain* dom) { return TriangleProgram(dom); },
                        [](int n) { return RandomGraph(n, 8 * n, /*seed=*/3); },
                        [](const Edge&) { return uint64_t{1}; },
                        {smoke ? 48 : 96, smoke ? 96 : 192});
}

}  // namespace
}  // namespace datalogo

int main(int argc, char** argv) {
  datalogo::PrintTable();
  datalogo::WriteJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
