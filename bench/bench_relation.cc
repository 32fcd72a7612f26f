// The relation layer on its own: Merge + Get per op on Relation<TropS>,
// over three key sets that land in the two row-id table forms —
// 256×256 dense arity-2 keys (direct), the same number of arity-2 keys
// over ids far above kDirectSpanCap (hashed), and 8000 dense arity-1 ids
// (direct). Each rep Merges every key into a fresh relation, Merges every
// key again (the in-place ⊕ update) and Gets every key, in a shuffled
// order. The table and the BENCH_relation.json journal report the best
// rep's cost per op and which table form the relation ended in, so a
// change to the probe path is attributed to this layer rather than read
// off a fixpoint time.
#include "bench/bench_util.h"

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace datalogo {
namespace {

constexpr ConstId kSide = 256;      // kSide² = 65536 arity-2 keys
constexpr ConstId kUnaryIds = 8000;
constexpr ConstId kSparseBase = 0x80000000u;

struct Case {
  const char* name;
  int arity;
  std::vector<Tuple> keys;  // shuffled
};

std::vector<Case> MakeCases() {
  std::mt19937 rng(11);
  std::vector<Case> cases = {{"dense_arity2", 2, {}},
                             {"sparse_arity2", 2, {}},
                             {"dense_arity1", 1, {}}};
  for (ConstId i = 0; i < kSide; ++i) {
    for (ConstId j = 0; j < kSide; ++j) {
      cases[0].keys.push_back({i, j});
      // A bijection onto ids spaced 65537 apart above 2^31: far sparse.
      cases[1].keys.push_back({kSparseBase + i * 65537u,
                               kSparseBase + j * 65537u});
    }
  }
  for (ConstId i = 0; i < kUnaryIds; ++i) cases[2].keys.push_back({i});
  for (Case& c : cases) std::shuffle(c.keys.begin(), c.keys.end(), rng);
  return cases;
}

/// Two Merge passes and one Get pass over `keys` into a fresh relation;
/// `direct` reports the table form the relation ended in.
void MergeGetPasses(const Case& c, bool* direct) {
  Relation<TropS> rel(c.arity);
  double sum = 0;
  for (const Tuple& k : c.keys) rel.Merge(k, 7.0);
  for (const Tuple& k : c.keys) rel.Merge(k, 5.0);
  for (const Tuple& k : c.keys) sum += rel.Get(k);
  benchmark::DoNotOptimize(sum);
  *direct = rel.direct_slots();
}

void WriteJson() {
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 7;
  const std::vector<Case> cases = MakeCases();

  Banner("bench_relation", "Relation Merge + Get per op, by table form");
  std::printf("%-14s %7s %7s %10s %10s\n", "case", "keys", "direct",
              "best_ms", "ns_per_op");
  BenchJson json("relation");
  json.MetaBool("smoke", smoke);
  json.MetaInt("reps", static_cast<uint64_t>(reps));
  json.Meta("workload",
            "Relation<TropS>: per rep, Merge every key into a fresh "
            "relation, Merge every key again, Get every key (shuffled); "
            "ops = 3 x keys");
  AddHostMeta(&json);
  for (const Case& c : cases) {
    double best_ms = -1;
    bool direct = false;
    for (int rep = 0; rep < reps; ++rep) {
      const double ms = WallMs([&] { MergeGetPasses(c, &direct); });
      if (best_ms < 0 || ms < best_ms) best_ms = ms;
    }
    const double ops = 3.0 * static_cast<double>(c.keys.size());
    const double ns_per_op = best_ms * 1e6 / ops;
    std::printf("%-14s %7zu %7s %10.2f %10.1f\n", c.name, c.keys.size(),
                direct ? "yes" : "no", best_ms, ns_per_op);
    json.BeginRow()
        .Str("case", c.name)
        .Int("arity", static_cast<uint64_t>(c.arity))
        .Int("keys", c.keys.size())
        .Bool("direct", direct)
        .Num("wall_ms", best_ms)
        .Num("ns_per_op", ns_per_op)
        .EndRow();
  }
  json.Write("BENCH_relation.json");
}

void BM_MergeGet(benchmark::State& state) {
  static const std::vector<Case> cases = MakeCases();
  const Case& c = cases[static_cast<std::size_t>(state.range(0))];
  state.SetLabel(c.name);
  bool direct = false;
  for (auto _ : state) MergeGetPasses(c, &direct);
  state.SetItemsProcessed(state.iterations() * 3 *
                          static_cast<int64_t>(c.keys.size()));
}

BENCHMARK(BM_MergeGet)
    ->Name("relation_merge_get")
    ->DenseRange(0, 2)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace datalogo

int main(int argc, char** argv) {
  datalogo::WriteJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
