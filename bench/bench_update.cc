// Incremental maintenance (Engine::Update) vs full recompute: APSP over
// Trop on a random graph with 1% edge churn per batch. The table and the
// BENCH_update.json journal report wall time and join work for servicing
// each batch incrementally (warm engine, delete cascade + insert
// cascade) against re-running the semi-naive fixpoint from scratch on
// the mutated EDB — the maintained tables are checked equal every round.
#include "bench/bench_util.h"

#include <random>
#include <utility>
#include <vector>

namespace datalogo {
namespace {

/// All live key tuples of a relation.
std::vector<Tuple> LiveTuples(const Relation<TropS>& rel) {
  std::vector<Tuple> out;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    Tuple t;
    for (int p = 0; p < rel.arity(); ++p) t.push_back(rel.Cell(r, p));
    out.push_back(std::move(t));
  }
  return out;
}

struct ChurnStats {
  int batches = 0;
  double update_ms = 0;
  double recompute_ms = 0;
  uint64_t update_work = 0;
  uint64_t recompute_work = 0;
  uint64_t update_rounds = 0;
  uint64_t deleted_rederived = 0;
  bool agree = true;
};

/// Runs `batches` churn batches (1% of the edges deleted, as many fresh
/// edges inserted) through one warm engine, timing Update against a
/// cold-engine full recompute of the same mutated EDB.
ChurnStats ChurnApsp(int n, int batches, unsigned seed) {
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  const int e = prog.FindPredicate("E");
  Graph g = RandomGraph(n, 3 * n, /*seed=*/static_cast<int>(seed));
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& ed) { return ed.weight; },
                   &edb.pops(e));
  Engine<TropS> engine(prog, edb);
  IdbInstance<TropS> idb(prog);
  idb.CopyContentsFrom(engine.SemiNaive(1 << 20).idb);

  std::mt19937 rng(seed);
  ChurnStats st;
  st.batches = batches;
  for (int b = 0; b < batches; ++b) {
    std::vector<Tuple> live = LiveTuples(edb.pops(e));
    const int churn =
        static_cast<int>(live.size() / 100) > 0
            ? static_cast<int>(live.size() / 100)
            : 1;  // 1% of the edge set, at least one
    EdbDelta<TropS> batch;
    for (int i = 0; i < churn; ++i) {
      batch.Delete(e, live[rng() % live.size()]);
      batch.Add(e, Tuple{ids[rng() % n], ids[rng() % n]},
                double(1 + rng() % 64) / 8.0);
    }
    UpdateResult ur;
    st.update_ms += WallMs([&] {
      ur = engine.Update(batch, &edb, &idb, 1 << 20);
    });
    st.update_work += ur.work;
    st.update_rounds += static_cast<uint64_t>(ur.rounds);
    st.deleted_rederived += ur.deleted_rederived;
    if (!ur.converged) st.agree = false;

    EdbInstance<TropS> cold(prog);
    cold.pops(e) = edb.pops(e);
    Engine<TropS> cold_engine(prog, cold);
    IdbInstance<TropS> gold_idb(prog);
    st.recompute_ms += WallMs([&] {
      auto gr = cold_engine.SemiNaive(1 << 20);
      st.recompute_work += gr.work;
      if (!gr.converged) st.agree = false;
      gold_idb.TakeContentsFrom(&gr.idb);
    });
    if (!idb.Equals(gold_idb)) st.agree = false;
  }
  return st;
}

void PrintChurnTable() {
  Banner("bench_update", "Engine::Update vs full recompute, 1% edge churn "
                         "APSP/Trop (random graph, m = 3n)");
  const bool smoke = BenchSmokeMode();
  const int batches = smoke ? 4 : 16;
  std::printf("%-14s %-12s %-14s %-9s %-12s %-12s %-10s %-10s %-6s\n",
              "workload", "update-ms", "recompute-ms", "speedup", "upd-work",
              "rec-work", "work-ratio", "rederived", "agree");
  BenchJson json("update");
  AddHostMeta(&json);
  json.Meta("workload", "APSP/Trop random graph, 1% churn per batch");
  json.MetaInt("batches", static_cast<uint64_t>(batches));
  for (int n : {smoke ? 32 : 64, smoke ? 64 : 128}) {
    ChurnStats st = ChurnApsp(n, batches, /*seed=*/9);
    const double speedup =
        st.recompute_ms / (st.update_ms > 0 ? st.update_ms : 1e-9);
    // Join work of the warm updates over that of the cold recomputes:
    // deterministic, unlike the times (< 1 means Update did less work).
    const double work_ratio =
        static_cast<double>(st.update_work) /
        static_cast<double>(st.recompute_work > 0 ? st.recompute_work : 1);
    char speedup_text[32];
    std::snprintf(speedup_text, sizeof speedup_text, "%.1fx", speedup);
    std::printf("%-14s %-12.2f %-14.2f %-9s %-12llu %-12llu %-10.3f "
                "%-10llu %-6s\n",
                ("apsp-" + std::to_string(n)).c_str(),
                st.update_ms / st.batches, st.recompute_ms / st.batches,
                speedup_text,
                static_cast<unsigned long long>(st.update_work),
                static_cast<unsigned long long>(st.recompute_work),
                work_ratio,
                static_cast<unsigned long long>(st.deleted_rederived),
                st.agree ? "yes" : "NO");
    json.BeginRow()
        .Str("workload", "apsp-trop")
        .Int("n", static_cast<uint64_t>(n))
        .Int("batches", static_cast<uint64_t>(st.batches))
        .Num("update_ms", st.update_ms)
        .Num("recompute_ms", st.recompute_ms)
        .Num("speedup", speedup)
        .Int("update_work", st.update_work)
        .Int("recompute_work", st.recompute_work)
        .Num("work_vs_recompute", work_ratio)
        .Int("update_rounds", st.update_rounds)
        .Int("deleted_rederived", st.deleted_rederived)
        .Str("agree", st.agree ? "yes" : "NO")
        .EndRow();
  }
  json.Write("BENCH_update.json");
  std::printf(
      "(shape: a 1%% batch touches a thin cone of the closure, so the\n"
      " warm cascades beat re-deriving every pair from scratch)\n");
}

/// range(0) = n; one batch per iteration against a warm engine.
void BM_ApspUpdate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  const int e = prog.FindPredicate("E");
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& ed) { return ed.weight; },
                   &edb.pops(e));
  Engine<TropS> engine(prog, edb);
  IdbInstance<TropS> idb(prog);
  idb.CopyContentsFrom(engine.SemiNaive(1 << 20).idb);
  std::mt19937 rng(7);
  for (auto _ : state) {
    std::vector<Tuple> live = LiveTuples(edb.pops(e));
    const int churn = static_cast<int>(live.size() / 100) > 0
                          ? static_cast<int>(live.size() / 100)
                          : 1;
    EdbDelta<TropS> batch;
    for (int i = 0; i < churn; ++i) {
      batch.Delete(e, live[rng() % live.size()]);
      batch.Add(e, Tuple{ids[rng() % n], ids[rng() % n]},
                double(1 + rng() % 64) / 8.0);
    }
    UpdateResult ur = engine.Update(batch, &edb, &idb, 1 << 20);
    benchmark::DoNotOptimize(ur.rounds + idb.TotalSupport());
  }
}

/// The same churn serviced by mutating the EDB and re-running the full
/// semi-naive fixpoint — the baseline Update must beat.
void BM_ApspRecomputeChurn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Domain dom;
  auto prog = ApspProgram(&dom).value();
  const int e = prog.FindPredicate("E");
  Graph g = RandomGraph(n, 3 * n, /*seed=*/9);
  std::vector<ConstId> ids = InternVertices(n, &dom);
  EdbInstance<TropS> edb(prog);
  LoadEdges<TropS>(g, ids, [](const Edge& ed) { return ed.weight; },
                   &edb.pops(e));
  Engine<TropS> engine(prog, edb);
  std::mt19937 rng(7);
  for (auto _ : state) {
    std::vector<Tuple> live = LiveTuples(edb.pops(e));
    const int churn = static_cast<int>(live.size() / 100) > 0
                          ? static_cast<int>(live.size() / 100)
                          : 1;
    for (int i = 0; i < churn; ++i) {
      edb.pops(e).Erase(live[rng() % live.size()]);
      edb.pops(e).Merge(Tuple{ids[rng() % n], ids[rng() % n]},
                        double(1 + rng() % 64) / 8.0);
    }
    auto r = engine.SemiNaive(1 << 20);
    benchmark::DoNotOptimize(r.idb.TotalSupport());
  }
}

BENCHMARK(BM_ApspUpdate)->Name("apsp_update_1pct")->Arg(64)->Arg(128);
BENCHMARK(BM_ApspRecomputeChurn)
    ->Name("apsp_recompute_1pct")
    ->Arg(64)
    ->Arg(128);

}  // namespace
}  // namespace datalogo

int main(int argc, char** argv) {
  datalogo::PrintChurnTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
