// Quickstart: one datalog° program, four semantics.
//
// The same transitive-closure rule text is evaluated over four POPS:
//   B      — reachability (classic datalog)
//   Trop+  — all-pairs shortest paths (Example 1.1)
//   N      — path counting (bag semantics)
//   Fuzzy  — widest-bottleneck ("maximum capacity") paths
#include <cstdio>

#include "src/datalogo.h"

namespace {

constexpr const char* kProgram = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

template <datalogo::NaturallyOrderedSemiring P, typename F>
void Run(const char* title, const datalogo::Graph& g, F&& lift) {
  using namespace datalogo;
  Domain dom;
  auto prog = ParseProgram(kProgram, &dom);
  if (!prog.ok()) {
    std::printf("parse error: %s\n", prog.status().ToString().c_str());
    return;
  }
  Status valid = ValidateProgram(prog.value());
  if (!valid.ok()) {
    std::printf("invalid program: %s\n", valid.ToString().c_str());
    return;
  }
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog.value());
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.value().FindPredicate("E")));

  Engine<P> engine(prog.value(), edb);
  EvalResult<P> result = engine.SemiNaive(1000);
  std::printf("=== %s (POPS %s) — converged=%d, %d iterations, %zu facts\n",
              title, P::kName, result.converged, result.steps,
              result.idb.TotalSupport());
  int t = prog.value().FindPredicate("T");
  std::printf("%s", result.idb.idb(t).ToString(dom).c_str());
}

}  // namespace

int main() {
  using namespace datalogo;
  // A small weighted graph: 0 → 1 → 2, 0 → 2, 2 → 3.
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 2, 2.0);
  g.AddEdge(0, 2, 5.0);
  g.AddEdge(2, 3, 1.0);

  std::printf("program:\n%s\n", kProgram);
  Run<BoolS>("reachability", g, [](const Edge&) { return true; });
  Run<TropS>("shortest paths", g, [](const Edge& e) { return e.weight; });
  Run<NatS>("path counting", g,
            [](const Edge&) { return static_cast<uint64_t>(1); });
  Run<FuzzyS>("bottleneck capacity", g, [](const Edge& e) {
    return 1.0 / (1.0 + e.weight);  // capacities in (0, 1]
  });
  return 0;
}
