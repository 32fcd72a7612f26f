// The TSV I/O layer on its own: LoadTsv of 64k integer-keyed weighted
// edges (split, integer interning, staging and the ⊕-fold), the same
// edges with every line repeated at another weight (the fold's duplicate
// path), and DumpTsv of a 64k-row Trop
// relation over symbol keys (sorted scan, symbol checks, double
// formatting), once with fractional values and once with whole-number
// ones — the shape shortest-path tables print. The table and the
// BENCH_io.json journal report the best wall time of a few reps and the
// cost per row, so a change to the tokenizer, the interning table or the
// value formatter is attributed to this layer rather than read off an
// end-to-end CLI time.
#include "bench/bench_util.h"

#include <random>
#include <string>

#include "src/relation/io.h"

namespace datalogo {
namespace {

constexpr int kVertices = 8000;
constexpr int kEdges = 64000;
constexpr int kDumpSide = 256;  // kDumpSide² = 65536 dump rows

/// "src\tdst\tweight\n" rows over integer vertex ids, weights 1..20.
/// With `dups`, each line is followed by the same edge at another weight.
std::string EdgeTsv(bool dups = false) {
  std::mt19937 rng(5);
  std::string text;
  for (int i = 0; i < kEdges; ++i) {
    const std::string edge = std::to_string(rng() % kVertices) + '\t' +
                             std::to_string(rng() % kVertices) + '\t';
    const uint32_t w = 1 + rng() % 20;
    text += edge + std::to_string(w) + '\n';
    if (dups) text += edge + std::to_string(1 + w % 20) + '\n';
  }
  return text;
}

/// All pairs over kDumpSide symbol vertices, valued k/8 (mostly
/// non-integral) or, with `whole`, k itself (whole numbers, 0..996).
Relation<TropS> DumpRelation(Domain* dom, bool whole) {
  std::vector<ConstId> ids = InternVertices(kDumpSide, dom);
  Relation<TropS> rel(2);
  for (int i = 0; i < kDumpSide; ++i) {
    for (int j = 0; j < kDumpSide; ++j) {
      const double k = (i * 131 + j * 17) % 997;
      rel.Set({ids[i], ids[j]}, whole ? k : k / 8.0);
    }
  }
  return rel;
}

struct LayerTime {
  double best_ms = -1;
  std::size_t rows = 0;
};

/// Per text line, so `load_dups` (two lines per edge) counts both.
LayerTime TimeLoad(const std::string& tsv, std::size_t lines, int reps) {
  LayerTime out{.rows = lines};
  for (int rep = 0; rep < reps; ++rep) {
    Domain dom;
    Relation<TropS> rel(2);
    Status s;
    const double ms = WallMs(
        [&] { s = LoadTsv<TropS>(tsv, &dom, &rel, ParseDoubleValue); });
    DLO_CHECK_MSG(s.ok(), "bench_io: generated TSV failed to load");
    if (out.best_ms < 0 || ms < out.best_ms) out.best_ms = ms;
  }
  return out;
}

LayerTime TimeDump(const Relation<TropS>& rel, const Domain& dom, int reps) {
  LayerTime out{.rows = rel.support_size()};
  for (int rep = 0; rep < reps; ++rep) {
    std::string text;
    const double ms = WallMs([&] { text = DumpTsv(rel, dom); });
    if (out.best_ms < 0 || ms < out.best_ms) out.best_ms = ms;
  }
  return out;
}

void WriteJson() {
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 5;
  const std::string tsv = EdgeTsv();
  const std::string dup_tsv = EdgeTsv(/*dups=*/true);
  Domain dom;
  const Relation<TropS> rel = DumpRelation(&dom, /*whole=*/false);
  const Relation<TropS> whole_rel = DumpRelation(&dom, /*whole=*/true);
  const LayerTime load = TimeLoad(tsv, kEdges, reps);
  const LayerTime load_dups = TimeLoad(dup_tsv, 2 * kEdges, reps);
  const LayerTime dump = TimeDump(rel, dom, reps);
  const LayerTime dump_whole = TimeDump(whole_rel, dom, reps);

  Banner("bench_io", "TSV load/dump and interning, per row");
  std::printf("%-10s %8s %10s %12s\n", "layer", "rows", "best_ms",
              "ns_per_row");
  BenchJson json("io");
  json.MetaBool("smoke", smoke);
  json.MetaInt("reps", static_cast<uint64_t>(reps));
  json.Meta("workload",
            "LoadTsv: 64k integer-keyed trop edges over 8000 vertices "
            "(load), and the same with each line repeated at another "
            "weight (load_dups, ns per line); "
            "DumpTsv: 256x256 symbol-keyed trop pairs valued k/8 (dump) "
            "or whole k (dump_whole)");
  AddHostMeta(&json);
  for (const auto& [layer, t] : {std::pair{"load", load},
                                 {"load_dups", load_dups},
                                 {"dump", dump},
                                 {"dump_whole", dump_whole}}) {
    const double ns_per_row = t.best_ms * 1e6 / static_cast<double>(t.rows);
    std::printf("%-10s %8zu %10.2f %12.1f\n", layer, t.rows, t.best_ms,
                ns_per_row);
    json.BeginRow()
        .Str("layer", layer)
        .Int("rows", t.rows)
        .Num("wall_ms", t.best_ms)
        .Num("ns_per_row", ns_per_row)
        .EndRow();
  }
  json.Write("BENCH_io.json");
}

void BM_LoadTsv(benchmark::State& state) {
  const std::string tsv = EdgeTsv();
  for (auto _ : state) {
    Domain dom;
    Relation<TropS> rel(2);
    benchmark::DoNotOptimize(
        LoadTsv<TropS>(tsv, &dom, &rel, ParseDoubleValue).ok());
  }
  state.SetItemsProcessed(state.iterations() * kEdges);
}

void BM_DumpTsv(benchmark::State& state) {
  Domain dom;
  const Relation<TropS> rel = DumpRelation(&dom, state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DumpTsv(rel, dom).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rel.support_size()));
}

BENCHMARK(BM_LoadTsv)->Name("io_load_tsv")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DumpTsv)
    ->Name("io_dump_tsv")
    ->ArgName("whole")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datalogo

int main(int argc, char** argv) {
  datalogo::WriteJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
