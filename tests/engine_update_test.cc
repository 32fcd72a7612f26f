// Tests for Engine::Update — incremental maintenance against the one
// oracle that matters: a full recompute from the mutated EDB must be
// bit-identical to the warm Update result, across carriers and across id
// layouts that put the join indexes on either index tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

/// The id layouts the bit-identity contract is checked over: the gap
/// between consecutive vertex ids. Gap 1 interns vertices densely, so
/// single-column keys take the direct index tier; gap 101 pads the
/// Domain with unused constants, so the same keys span far more ids than
/// 4·live + 256 and take the hash tier.
constexpr int kIdGaps[] = {1, 101};

/// Full recompute from `edb` with a FRESH engine (cold caches): the
/// golden result Update must match bit-for-bit.
template <Pops P>
EvalResult<P> Golden(const Program& prog, const EdbInstance<P>& edb) {
  Engine<P> eng(prog, edb);
  if constexpr (CompleteDistributiveDioid<P>) return eng.SemiNaive(1000);
  return eng.Naive(1000);
}

/// All live tuples of a relation (for picking random deletions).
template <Pops P>
std::vector<Tuple> LiveTuples(const Relation<P>& rel) {
  std::vector<Tuple> out;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    Tuple t;
    for (int p = 0; p < rel.arity(); ++p) t.push_back(rel.Cell(r, p));
    out.push_back(std::move(t));
  }
  return out;
}

/// Drives `rounds` random mixed batches through one warm engine and
/// checks each against a cold full recompute of the mutated EDB. Every
/// batch deletes 0–2 live edges and adds a joined pair of edges (see
/// joined_pair) plus 0–2 random ones, so some derivation can use two
/// added edges at once — the only case in which an EDB cross term's
/// pre-batch snapshot matters. The comparison is Relation::Equals (same
/// support, P::Eq values) plus DumpTsvChecked string equality of every
/// IDB — byte-level, catching any value formatting drift too. `program`
/// must declare `edb E/2`, the only relation the batches mutate; each of
/// its Boolean EDBs gets, once before the first fixpoint, the facts
/// `bool_facts` (vertex indexes) or, when that is empty, random tuples.
/// Vertex ids are `id_gap` apart.
template <Pops P, typename MakeValue>
void ChurnAgainstRecompute(
    int id_gap, MakeValue make_value, int rounds, unsigned seed,
    bool acyclic = false, const char* program = kTc,
    const std::vector<std::vector<int>>& bool_facts = {}) {
  Domain dom;
  auto prog_or = ParseProgram(program, &dom);
  ASSERT_TRUE(prog_or.ok()) << prog_or.status().ToString();
  const Program& prog = prog_or.value();
  const int e = prog.FindPredicate("E");
  ASSERT_GE(e, 0);

  std::mt19937 rng(seed);
  const int n = 12;
  std::vector<ConstId> ids;
  for (int v = 0; v < n; ++v) {
    ids.push_back(dom.InternSymbol("v" + std::to_string(v)));
    for (int pad = 1; pad < id_gap; ++pad) {
      dom.InternSymbol("pad" + std::to_string(v) + "_" + std::to_string(pad));
    }
  }

  // Carriers whose fixpoint only exists on DAGs (provenance polynomials
  // grow a monomial per path) get strictly ascending edges.
  auto random_edge = [&]() -> std::pair<ConstId, ConstId> {
    int a = static_cast<int>(rng() % n), b = static_cast<int>(rng() % n);
    if (acyclic) {
      if (a == b) b = (a + 1) % n;
      if (a > b) std::swap(a, b);
    }
    return {ids[a], ids[b]};
  };
  // Two edges to add that one derivation uses together: a→b and w→c
  // around a random live edge b→w, which T(X,Y) :- E(X,Y) puts in T, so
  // E(a,b) * T(b,w) * E(w,c) joins them; or, when that edge leaves no
  // room for an ascending a or c, the chain a→b, b→c. Ascending when
  // `acyclic`, where the chain alone could never feed a T(b,b).
  auto index_of = [&](ConstId id) {
    return static_cast<int>(std::find(ids.begin(), ids.end(), id) -
                            ids.begin());
  };
  auto joined_pair = [&](const std::vector<Tuple>& live) {
    int b = 0, w = 0;
    if (!live.empty()) {
      const Tuple& edge = live[rng() % live.size()];
      b = index_of(edge[0]);
      w = index_of(edge[1]);
    }
    if (live.empty() || (acyclic && (b == 0 || w == n - 1))) {
      b = acyclic ? 1 + static_cast<int>(rng() % (n - 2))
                  : static_cast<int>(rng() % n);
      w = b;
    }
    const int a = acyclic ? static_cast<int>(rng() % b)
                          : static_cast<int>(rng() % n);
    const int c = acyclic ? w + 1 + static_cast<int>(rng() % (n - 1 - w))
                          : static_cast<int>(rng() % n);
    return std::array<Tuple, 2>{Tuple{ids[a], ids[b]}, Tuple{ids[w], ids[c]}};
  };
  EdbInstance<P> edb(prog);
  for (int i = 0; i < 2 * n; ++i) {
    auto [a, b] = random_edge();
    edb.pops(e).Merge({a, b}, make_value(rng));
  }
  std::vector<int> bool_preds;
  for (int pred = 0; pred < prog.num_predicates(); ++pred) {
    if (prog.predicate(pred).kind != PredKind::kBoolEdb) continue;
    bool_preds.push_back(pred);
    for (const std::vector<int>& fact : bool_facts) {
      Tuple tup;
      for (int v : fact) tup.push_back(ids[v]);
      edb.boolean(pred).Set(tup, true);
    }
    for (int i = 0; bool_facts.empty() && i < n; ++i) {
      Tuple tup;
      for (int p = 0; p < prog.predicate(pred).arity; ++p) {
        tup.push_back(ids[rng() % n]);
      }
      edb.boolean(pred).Set(tup, true);
    }
  }

  Engine<P> eng(prog, edb);
  IdbInstance<P> idb(prog);
  {
    EvalResult<P> r0 = Golden<P>(prog, edb);
    ASSERT_TRUE(r0.converged);
    idb.CopyContentsFrom(r0.idb);
  }

  for (int round = 0; round < rounds; ++round) {
    EdbDelta<P> batch;
    const int adds = static_cast<int>(rng() % 3);
    const int dels = static_cast<int>(rng() % 3);
    std::vector<Tuple> live = LiveTuples(edb.pops(e));
    for (int i = 0; i < dels && !live.empty(); ++i) {
      batch.Delete(e, live[rng() % live.size()]);
    }
    for (const Tuple& t : joined_pair(live)) batch.Add(e, t, make_value(rng));
    for (int i = 0; i < adds; ++i) {
      auto [a, b] = random_edge();
      batch.Add(e, Tuple{a, b}, make_value(rng));
    }

    UpdateResult ur = eng.Update(batch, &edb, &idb, 1000);
    ASSERT_TRUE(ur.converged) << "id gap " << id_gap << " round " << round;

    EdbInstance<P> gold_edb(prog);
    gold_edb.pops(e) = edb.pops(e);
    for (int pred : bool_preds) gold_edb.boolean(pred) = edb.boolean(pred);
    EvalResult<P> gold = Golden<P>(prog, gold_edb);
    ASSERT_TRUE(gold.converged);
    ASSERT_TRUE(idb.Equals(gold.idb))
        << "id gap " << id_gap << " round " << round
        << ": Update diverged from full recompute";
    for (int pred : prog.IdbPredicates()) {
      std::string got, want;
      ASSERT_TRUE(DumpTsvChecked(idb.idb(pred), dom, &got).ok());
      ASSERT_TRUE(DumpTsvChecked(gold.idb.idb(pred), dom, &want).ok());
      EXPECT_EQ(got, want) << "id gap " << id_gap << " round " << round
                           << " " << prog.predicate(pred).name;
    }
  }
}

TEST(EngineUpdate, BoolChurnMatchesRecompute) {
  int rounds = CiIterations(8, 3);
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<BoolS>(
        gap, [](std::mt19937&) { return true; }, rounds, 11);
  }
}

TEST(EngineUpdate, TropChurnMatchesRecompute) {
  int rounds = CiIterations(8, 3);
  for (int gap : kIdGaps) {
    // Weights exact in binary (k/8), so recompute and cascade sums are
    // comparable bit-for-bit.
    ChurnAgainstRecompute<TropS>(
        gap, [](std::mt19937& rng) { return double(1 + rng() % 64) / 8.0; },
        rounds, 23);
  }
}

TEST(EngineUpdate, NaturalsChurnMatchesRecompute) {
  int rounds = CiIterations(6, 2);
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<NatS>(
        gap, [](std::mt19937& rng) { return uint64_t{1} + rng() % 3; }, rounds,
        37);
  }
}

TEST(EngineUpdate, ProvenanceChurnMatchesRecompute) {
  int rounds = CiIterations(4, 2);
  int edge = 0;
  ChurnAgainstRecompute<ProvPolyS>(
      /*id_gap=*/1,
      [&edge](std::mt19937&) {
        return ProvPolyS::Var("e" + std::to_string(edge++));
      },
      rounds, 41, /*acyclic=*/true);
}

// -------- DRed re-derive program shapes --------
//
// DRed re-derives pruned tuples with a forward join program per disjunct:
// the pruned head tuples drive level 0 and the body follows in a greedy
// plan. The programs below give it different shapes; every one must keep
// Update bit-identical to a cold recompute.

// Three POPS atoms: the plan must keep their ⊗ in atom order.
constexpr const char* kThreeAtomBody = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; E(X,Z) * T(Z,W) * E(W,Y).
)";

// Non-linear: two IDB occurrences, so the cascades read T(t-1).
constexpr const char* kNonLinear = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * T(Z,Y).
)";

// Head constants: key positions of the pruned-tuple driver. Two rules
// share the head H, so each one's driver sees the other's pruned tuples.
constexpr const char* kHeadConstant = R"(
  edb E/2.
  idb T/2.
  idb H/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
  H(v0,Y) :- T(v0,Y) ; H(v0,Z) * E(Z,Y).
  H(X,v1) :- T(X,v1).
)";

// A repeated head variable: a check pair of the pruned-tuple driver,
// which skips the pruned C(x,y), x ≠ y, of the second rule.
constexpr const char* kHeadRepeat = R"(
  edb E/2.
  idb T/2.
  idb C/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
  C(X,X) :- T(X,Z) * E(Z,X).
  C(X,Y) :- E(X,Y) * E(Y,X).
)";

// A Boolean guard whose EDB no batch touches, so deletes stay on DRed.
constexpr const char* kGuarded = R"(
  edb E/2.
  bedb Keep/1.
  idb T/2.
  T(X,Y) :- { E(X,Y) | Keep(X) } ; { T(X,Z) * E(Z,Y) | Keep(Z) }.
)";

/// DRed churn of `program` against a cold recompute over B, Trop (k/8
/// weights, exact in binary) and Fuzzy, on every id layout in kIdGaps.
void DredChurnAllCarriers(const char* program, unsigned seed) {
  const int rounds = CiIterations(6, 2);
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<BoolS>(
        gap, [](std::mt19937&) { return true; }, rounds, seed, false,
        program);
    ChurnAgainstRecompute<TropS>(
        gap, [](std::mt19937& rng) { return double(1 + rng() % 64) / 8.0; },
        rounds, seed + 1, false, program);
    ChurnAgainstRecompute<FuzzyS>(
        gap, [](std::mt19937& rng) { return double(1 + rng() % 8) / 8.0; },
        rounds, seed + 2, false, program);
  }
}

TEST(EngineUpdate, DredThreeAtomBodyMatchesRecompute) {
  DredChurnAllCarriers(kThreeAtomBody, 101);
}

TEST(EngineUpdate, DredNonLinearMatchesRecompute) {
  DredChurnAllCarriers(kNonLinear, 211);
}

TEST(EngineUpdate, DredHeadConstantMatchesRecompute) {
  DredChurnAllCarriers(kHeadConstant, 307);
}

TEST(EngineUpdate, DredHeadRepeatedVariableMatchesRecompute) {
  DredChurnAllCarriers(kHeadRepeat, 401);
}

TEST(EngineUpdate, DredBooleanGuardMatchesRecompute) {
  DredChurnAllCarriers(kGuarded, 503);
}

TEST(EngineUpdate, TropInexactWeightsMatchRecompute) {
  // Weights that are not exact in binary make (a + b) + c and (a + c) + b
  // differ in the last bit: the re-derive plan may swap the two POPS
  // atoms of T(X,Z) * E(Z,Y) (⊗ is commutative), but must keep the three
  // of E(X,Z) * T(Z,W) * E(W,Y) in atom order.
  const int rounds = CiIterations(8, 3);
  auto tenths = [](std::mt19937& rng) { return 0.1 * double(1 + rng() % 9); };
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<TropS>(gap, tenths, rounds, 601, false, kTc);
    ChurnAgainstRecompute<TropS>(gap, tenths, rounds, 607, false,
                                 kThreeAtomBody);
  }
}

TEST(RederivePlan, TwoAtomBodyStartsFromTheSmallerBoundAtom) {
  // APSP's T(X,Z) * E(Z,Y) with the head (X,Y) bound: one bound position
  // each, so the fewer live rows go first — E's in-edges of Y, not T's
  // whole row of X.
  Domain dom;
  const Program prog = ParseProgram(kTc, &dom).value();
  const Rule& rule = prog.rules()[0];
  const SumProduct& sp = rule.disjuncts[1];
  std::vector<bool> head_bound(static_cast<std::size_t>(rule.num_vars), false);
  for (const Term& t : rule.head.args) head_bound[t.var] = true;
  EXPECT_EQ(GreedyJoinOrder(sp, head_bound, {1000, 30}, {}),
            (std::vector<JoinStep>{{false, 1}, {false, 0}}));
  EXPECT_EQ(GreedyJoinOrder(sp, head_bound, {30, 1000}, {}),
            (std::vector<JoinStep>{{false, 0}, {false, 1}}));
}

TEST(RederivePlan, ThreeAtomBodyKeepsPopsAtomsInAtomOrder) {
  // E(X,Z) * T(Z,W) * E(W,Y) with (X,Y) bound: a free plan would take
  // both E atoms before T. Three ⊗ factors must stay in atom order
  // whatever the row counts; only Boolean atoms may move between them.
  Domain dom;
  const Program prog = ParseProgram(R"(
    edb E/2.
    bedb Keep/1.
    idb T/2.
    T(X,Y) :- E(X,Y) ; E(X,Z) * T(Z,W) * E(W,Y) ;
              { E(X,Z) * T(Z,W) * E(W,Y) | Keep(Z) }.
  )", &dom).value();
  const Rule& rule = prog.rules()[0];
  std::vector<bool> head_bound(static_cast<std::size_t>(rule.num_vars), false);
  for (const Term& t : rule.head.args) head_bound[t.var] = true;
  const std::vector<JoinStep> in_order = {
      {false, 0}, {false, 1}, {false, 2}};
  EXPECT_EQ(GreedyJoinOrder(rule.disjuncts[1], head_bound, {30, 1000, 30}, {}),
            in_order);
  EXPECT_EQ(GreedyJoinOrder(rule.disjuncts[1], head_bound, {1000, 1, 1}, {}),
            in_order);
  // The guard Keep(Z) joins as soon as it is fully bound: right after the
  // E atom that binds Z, ahead of the T atom next in atom order.
  EXPECT_EQ(GreedyJoinOrder(rule.disjuncts[2], head_bound, {30, 1000, 30},
                            {5}),
            (std::vector<JoinStep>{
                {false, 0}, {true, 0}, {false, 1}, {false, 2}}));
}

// -------- Seed plans: every EDB cross term starts from its Δ --------

TEST(SeedPlan, DeltaAtomDrivesTheApspCrossTerm) {
  // T(X,Z) * Δ(Z,Y) with nothing bound: neither atom has a bound
  // position, so the fewer rows (Δ's) drive and T is probed on Z.
  Domain dom;
  const Program prog = ParseProgram(kTc, &dom).value();
  const Rule& rule = prog.rules()[0];
  const std::vector<bool> none(static_cast<std::size_t>(rule.num_vars), false);
  EXPECT_EQ(GreedyJoinOrder(rule.disjuncts[1], none, {1000, 3}, {}),
            (std::vector<JoinStep>{{false, 1}, {false, 0}}));
}

TEST(SeedPlan, OneEdgeUpdateVisitsFewerEntriesThanTheClosure) {
  // A ring v0 → v1 → … → v39 → v0 of unit Trop edges, whose closure holds
  // all 1600 pairs, and a chord v0 → v20 of weight 100 that no shortest
  // path takes. Inserting the chord and then deleting it must each visit
  // fewer join entries than T has rows: both seeds start from the one Δ
  // row and probe T's 40 paths into v0, where a seed in atom order would
  // scan all of T(X,Z) first.
  for (int gap : kIdGaps) {
    Domain dom;
    const Program prog = ParseProgram(kTc, &dom).value();
    const int e = prog.FindPredicate("E");
    const int t = prog.FindPredicate("T");
    constexpr int kRing = 40;
    std::vector<ConstId> ids;
    for (int v = 0; v < kRing; ++v) {
      ids.push_back(dom.InternSymbol("v" + std::to_string(v)));
      for (int pad = 1; pad < gap; ++pad) {
        dom.InternSymbol("pad" + std::to_string(v) + "_" +
                         std::to_string(pad));
      }
    }
    EdbInstance<TropS> edb(prog);
    for (int v = 0; v < kRing; ++v) {
      edb.pops(e).Set({ids[v], ids[(v + 1) % kRing]}, 1.0);
    }
    Engine<TropS> eng(prog, edb);
    IdbInstance<TropS> idb(prog);
    idb.CopyContentsFrom(eng.SemiNaive(1000).idb);
    const uint64_t closure_rows = idb.idb(t).support_size();
    ASSERT_EQ(closure_rows, uint64_t{kRing * kRing});

    const Tuple chord = {ids[0], ids[kRing / 2]};
    EdbDelta<TropS> insert;
    insert.Add(e, chord, 100.0);
    EdbDelta<TropS> erase;
    erase.Delete(e, chord);
    for (const EdbDelta<TropS>* batch : {&insert, &erase}) {
      const UpdateResult r = eng.Update(*batch, &edb, &idb, 1000);
      ASSERT_TRUE(r.converged);
      EXPECT_EQ(r.strategy, batch == &insert ? UpdateStrategy::kInsertOnly
                                             : UpdateStrategy::kDred);
      EXPECT_LT(r.work, closure_rows) << "id gap " << gap;
      EdbInstance<TropS> cold(prog);
      cold.pops(e) = edb.pops(e);
      EXPECT_TRUE(idb.Equals(Golden<TropS>(prog, cold).idb))
          << "id gap " << gap;
    }
  }
}

// An `X = v0` prebinding and a Boolean guard Hot(X,W). In the seed of Δ at
// E(X,Z), Δ and the guard each have one bound position (X), so whichever
// holds fewer rows drives level 0: with one Hot fact, the guard beats any
// Δ of two or more edges and is looked up on the prebinding alone, a
// level 0 the forward compile never produces.
constexpr const char* kPreboundGuard = R"(
  edb E/2.
  bedb Hot/2.
  idb T/2.
  idb R/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
  R(X,Y) :- { E(X,Z) * T(Z,Y) | X = v0, Hot(X,W) }.
)";

TEST(SeedPlan, GuardSmallerThanDeltaDrivesLevelZero) {
  Domain dom;
  const Program prog = ParseProgram(kPreboundGuard, &dom).value();
  const Rule& rule = prog.rules()[1];
  const SumProduct& sp = rule.disjuncts[0];
  ASSERT_EQ(sp.conditions.size(), 2u);  // X = v0, Hot(X,W)
  std::vector<bool> prebound(static_cast<std::size_t>(rule.num_vars), false);
  prebound[static_cast<std::size_t>(sp.atoms[0].args[0].var)] = true;
  EXPECT_EQ(GreedyJoinOrder(sp, prebound, {3, 1000}, {0, 1}),
            (std::vector<JoinStep>{{true, 1}, {false, 0}, {false, 1}}));
  // A one-row Δ ties the guard on rows, and POPS atoms win ties.
  EXPECT_EQ(GreedyJoinOrder(sp, prebound, {1, 1000}, {0, 1}),
            (std::vector<JoinStep>{{false, 0}, {true, 1}, {false, 1}}));
}

TEST(SeedPlan, PreboundGuardChurnMatchesRecompute) {
  // Batches of 2–4 inserts and 0–2 deletes: the one-fact guard drives the
  // seeds of every Δ with two or more rows, Δ drives the rest. B, Trop and
  // Fuzzy take DRed and the insert cascade; ℕ, on acyclic edges so that
  // its counts stay finite, takes the exact-delete cascade.
  const int rounds = CiIterations(6, 2);
  const std::vector<std::vector<int>> hot = {{0, 5}};
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<BoolS>(
        gap, [](std::mt19937&) { return true; }, rounds, 701, false,
        kPreboundGuard, hot);
    ChurnAgainstRecompute<TropS>(
        gap, [](std::mt19937& rng) { return double(1 + rng() % 64) / 8.0; },
        rounds, 702, false, kPreboundGuard, hot);
    ChurnAgainstRecompute<FuzzyS>(
        gap, [](std::mt19937& rng) { return double(1 + rng() % 8) / 8.0; },
        rounds, 703, false, kPreboundGuard, hot);
    ChurnAgainstRecompute<NatS>(
        gap, [](std::mt19937& rng) { return uint64_t{1} + rng() % 3; },
        rounds, 704, /*acyclic=*/true, kPreboundGuard, hot);
  }
}

// -------- Targeted scenarios --------

struct Fixture {
  Domain dom;
  Program prog;
  int e, t;
  ConstId a, b, c, d;
  explicit Fixture(const char* text = kTc)
      : prog(ParseProgram(text, &dom).value()),
        e(prog.FindPredicate("E")),
        t(prog.FindPredicate("T")),
        a(dom.InternSymbol("a")),
        b(dom.InternSymbol("b")),
        c(dom.InternSymbol("c")),
        d(dom.InternSymbol("d")) {}
};

TEST(EngineUpdate, EmptyBatchIsNoop) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  UpdateResult r = eng.Update(EdbDelta<BoolS>{}, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kNoop);
  EXPECT_EQ(r.rounds, 0);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));
}

TEST(EngineUpdate, InsertOnlyCascades) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Add(f.e, {f.b, f.c}, true);
  batch.Add(f.e, {f.c, f.d}, true);
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kInsertOnly);
  EXPECT_TRUE(r.converged);
  // The cascade reached the two-hop closure through BOTH new edges.
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.c}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.d}));
}

TEST(EngineUpdate, DredDeleteWithSurvivingDerivation) {
  // a→b twice over (direct edge AND a→c→b): deleting the direct edge
  // must keep T(a,b) alive through the alternative derivation.
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  edb.pops(f.e).Set({f.a, f.c}, true);
  edb.pops(f.e).Set({f.c, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));  // rederived via a→c→b
  EXPECT_GE(r.deleted_rederived, 1u);
  EXPECT_FALSE(edb.pops(f.e).Contains({f.a, f.b}));
}

TEST(EngineUpdate, DredCascadingDelete) {
  // Chain a→b→c→d: deleting a→b must take out T(a,b), T(a,c), T(a,d) —
  // the whole cone — and nothing else.
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  edb.pops(f.e).Set({f.b, f.c}, true);
  edb.pops(f.e).Set({f.c, f.d}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.b}));
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.c}));
  EXPECT_FALSE(idb.idb(f.t).Contains({f.a, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.c}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.b, f.d}));
  EXPECT_TRUE(idb.idb(f.t).Get({f.c, f.d}));
}

TEST(EngineUpdate, TropDeleteRestoresLongerPath) {
  // Shortcut a→b (1) over a→c→b (2+3): deleting the shortcut must
  // surface the longer distance, not drop the tuple.
  Fixture f;
  EdbInstance<TropS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, 1.0);
  edb.pops(f.e).Set({f.a, f.c}, 2.0);
  edb.pops(f.e).Set({f.c, f.b}, 3.0);
  Engine<TropS> eng(f.prog, edb);
  IdbInstance<TropS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), 1.0);

  EdbDelta<TropS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), 5.0);
}

TEST(EngineUpdate, NaturalsExactDeleteKeepsSurvivingCounts) {
  // ℕ counts derivations: T(a,b) has two (direct + via c). Deleting the
  // direct edge subtracts exactly that derivation's count — the other
  // survives, no over-deletion, no re-derive pass.
  Fixture f;
  EdbInstance<NatS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, uint64_t{1});
  edb.pops(f.e).Set({f.a, f.c}, uint64_t{1});
  edb.pops(f.e).Set({f.c, f.b}, uint64_t{1});
  Engine<NatS> eng(f.prog, edb);
  IdbInstance<NatS> idb(f.prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{2});

  EdbDelta<NatS> batch;
  batch.Delete(f.e, {f.a, f.b});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kExactDeletion);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{1});
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.c}), uint64_t{1});
}

TEST(EngineUpdate, NaturalsSaturationFallsBackToRecompute) {
  // An ∞-weighted fact saturates downstream counts; the exact cascade
  // cannot subtract from ∞ and must hand over to a full recompute — with
  // the EDB batch still applied exactly once.
  Fixture f;
  EdbInstance<NatS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.a}, NatS::kInf);  // ⇒ T(a,·) = ∞
  edb.pops(f.e).Set({f.a, f.b}, uint64_t{1});
  edb.pops(f.e).Set({f.b, f.c}, uint64_t{1});
  Engine<NatS> eng(f.prog, edb);
  IdbInstance<NatS> idb(f.prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.a, f.b}), NatS::kInf);

  EdbDelta<NatS> batch;
  batch.Delete(f.e, {f.a, f.a});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kRecompute);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), uint64_t{1});
  EXPECT_FALSE(edb.pops(f.e).Contains({f.a, f.a}));

  EdbInstance<NatS> gold_edb(f.prog);
  gold_edb.pops(f.e) = edb.pops(f.e);
  EXPECT_TRUE(idb.Equals(Golden<NatS>(f.prog, gold_edb).idb));
  // rounds and work count the abandoned cascade on top of the fallback
  // run's: its seed (one round, 3 entries), whose first retraction met ∞.
  const EvalResult<NatS> fallback =
      Engine<NatS>(f.prog, gold_edb).SemiNaive(100);
  EXPECT_EQ(r.rounds, fallback.steps + 1);
  EXPECT_EQ(r.work, fallback.work + 3);
}

TEST(EngineUpdate, NaturalsInsertIntoSaturatedCycleTerminates) {
  // E(a,a) = ∞ and the cycle a→b→c→a make every T tuple on the cycle ∞.
  // The new edge b→a sends fresh mass into those ∞ tuples, where T(u)
  // ⊕-absorbs it: the cascade must drop it, or it would circle forever.
  // The new edge c→d sends mass into fresh tuples, which it must keep.
  Fixture f;
  EdbInstance<NatS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.a}, NatS::kInf);
  edb.pops(f.e).Set({f.a, f.b}, uint64_t{1});
  edb.pops(f.e).Set({f.b, f.c}, uint64_t{1});
  edb.pops(f.e).Set({f.c, f.a}, uint64_t{1});
  Engine<NatS> eng(f.prog, edb);
  IdbInstance<NatS> idb(f.prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  ASSERT_EQ(idb.idb(f.t).Get({f.b, f.a}), NatS::kInf);

  EdbDelta<NatS> batch;
  batch.Add(f.e, {f.b, f.a}, uint64_t{2});
  batch.Add(f.e, {f.c, f.d}, uint64_t{1});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kInsertOnly);
  EXPECT_TRUE(r.converged);
  // Seed plus one round, as when δ was diffed from a whole candidate.
  EXPECT_EQ(r.rounds, 2);
  EXPECT_EQ(r.work, 13u);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.d}), NatS::kInf);

  EdbInstance<NatS> gold_edb(f.prog);
  gold_edb.pops(f.e) = edb.pops(f.e);
  EXPECT_TRUE(idb.Equals(Golden<NatS>(f.prog, gold_edb).idb));
}

TEST(EngineUpdate, NaturalsRepeatedEdbAtomChurnMatchesRecompute) {
  // E occurs twice in one disjunct, so a cross term reads E's
  // pre-mutation snapshot at the later occurrence: the insert and
  // exact-delete cascades must still count each derivation once. Every
  // batch adds two edges joined by a path, so reading the live E there
  // instead double-counts ΔE * T * ΔE.
  const int rounds = CiIterations(6, 2);
  for (int gap : kIdGaps) {
    ChurnAgainstRecompute<NatS>(
        gap, [](std::mt19937& rng) { return uint64_t{1} + rng() % 3; },
        rounds, 802, /*acyclic=*/true, kThreeAtomBody);
  }
}

TEST(EngineUpdate, TwoChangedEdbPredicatesInOneBodyMatchRecompute) {
  // E and F both change in one batch and meet in one disjunct: the cross
  // term driven by E's Δ must read F's pre-mutation snapshot, the one
  // driven by F's Δ the live E. Over ℕ a wrong snapshot double-counts.
  constexpr const char* kTwoEdbs = R"(
    edb E/2.
    edb F/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; E(X,Z) * F(Z,Y) ; T(X,Z) * E(Z,W) * F(W,Y).
  )";
  Domain dom;
  const Program prog = ParseProgram(kTwoEdbs, &dom).value();
  const int e = prog.FindPredicate("E");
  const int fp = prog.FindPredicate("F");
  std::vector<ConstId> v;
  for (int i = 0; i < 6; ++i) {
    v.push_back(dom.InternSymbol("v" + std::to_string(i)));
  }
  EdbInstance<NatS> edb(prog);
  for (int i = 0; i + 1 < 6; ++i) {  // a DAG: every edge ascends
    edb.pops(e).Set({v[i], v[i + 1]}, uint64_t{1});
    edb.pops(fp).Set({v[i], v[i + 1]}, uint64_t{2});
  }
  Engine<NatS> eng(prog, edb);
  IdbInstance<NatS> idb(prog);
  idb.CopyContentsFrom(eng.Naive(100).idb);
  auto expect_recompute = [&](const char* what) {
    EdbInstance<NatS> gold_edb(prog);
    gold_edb.pops(e) = edb.pops(e);
    gold_edb.pops(fp) = edb.pops(fp);
    EXPECT_TRUE(idb.Equals(Golden<NatS>(prog, gold_edb).idb)) << what;
  };

  EdbDelta<NatS> adds;
  adds.Add(e, {v[0], v[2]}, uint64_t{1});
  adds.Add(e, {v[1], v[3]}, uint64_t{3});
  adds.Add(fp, {v[2], v[4]}, uint64_t{1});
  adds.Add(fp, {v[3], v[4]}, uint64_t{2});
  UpdateResult r = eng.Update(adds, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kInsertOnly);
  EXPECT_TRUE(r.converged);
  expect_recompute("insert");

  EdbDelta<NatS> dels;
  dels.Delete(e, {v[1], v[3]});
  dels.Delete(fp, {v[3], v[4]});
  dels.Delete(e, {v[2], v[3]});
  r = eng.Update(dels, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kExactDeletion);
  EXPECT_TRUE(r.converged);
  expect_recompute("delete");
}

TEST(EngineUpdate, BoolEdbDeltaForcesRecompute) {
  constexpr const char* kGuarded = R"(
    edb E/2.
    bedb Keep/1.
    idb T/2.
    T(X,Y) :- { E(X,Y) | Keep(X) }.
  )";
  Domain dom;
  auto prog_or = ParseProgram(kGuarded, &dom);
  ASSERT_TRUE(prog_or.ok()) << prog_or.status().ToString();
  const Program& prog = prog_or.value();
  const int e = prog.FindPredicate("E");
  const int keep = prog.FindPredicate("Keep");
  const int t = prog.FindPredicate("T");
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");

  EdbInstance<BoolS> edb(prog);
  edb.pops(e).Set({a, b}, true);
  edb.boolean(keep).Set({a}, true);
  Engine<BoolS> eng(prog, edb);
  IdbInstance<BoolS> idb(prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  ASSERT_TRUE(idb.idb(t).Get({a, b}));

  EdbDelta<BoolS> batch;
  batch.DeleteBool(keep, {a});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kRecompute);
  EXPECT_TRUE(r.converged);
  EXPECT_FALSE(idb.idb(t).Contains({a, b}));
  EXPECT_FALSE(edb.boolean(keep).Contains({a}));
}

TEST(EngineUpdate, DeleteThenReAddLandsOnAddedValue) {
  Fixture f;
  EdbInstance<TropS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, 1.0);
  Engine<TropS> eng(f.prog, edb);
  IdbInstance<TropS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<TropS> batch;
  batch.Delete(f.e, {f.a, f.b});
  batch.Add(f.e, Tuple{f.a, f.b}, 7.0);
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(edb.pops(f.e).Get({f.a, f.b}), 7.0);
  EXPECT_EQ(idb.idb(f.t).Get({f.a, f.b}), 7.0);
}

TEST(EngineUpdate, DeleteAbsentFactIsNoop) {
  Fixture f;
  EdbInstance<BoolS> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, true);
  Engine<BoolS> eng(f.prog, edb);
  IdbInstance<BoolS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<BoolS> batch;
  batch.Delete(f.e, {f.c, f.d});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(idb.idb(f.t).Get({f.a, f.b}));
}

/// The chain a→b→c→d, each edge valued `one`.
template <Pops P>
EdbInstance<P> Chain(const Fixture& f, typename P::Value one) {
  EdbInstance<P> edb(f.prog);
  edb.pops(f.e).Set({f.a, f.b}, one);
  edb.pops(f.e).Set({f.b, f.c}, one);
  edb.pops(f.e).Set({f.c, f.d}, one);
  return edb;
}

/// Runs the batch `make_batch(f)` through a warm engine over Chain on a
/// budget of `max_steps`, expects the run to stop early, and checks that
/// the EDB still ends holding the whole batch: its deletes, then its
/// adds.
template <Pops P, typename MakeBatch>
UpdateResult ChainUpdateOverBudget(MakeBatch make_batch, int max_steps,
                                   typename P::Value one) {
  Fixture f;
  EdbInstance<P> edb = Chain<P>(f, one);
  const EdbDelta<P> batch = make_batch(f);
  Relation<P> want = edb.pops(f.e);
  for (const auto& del : batch.pops_deletes) want.Erase(del.tuple);
  for (const auto& add : batch.pops_adds) want.Merge(add.tuple, add.value);

  Engine<P> eng(f.prog, edb);
  IdbInstance<P> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);
  const UpdateResult r = eng.Update(batch, &edb, &idb, max_steps);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(edb.pops(f.e).Equals(want));
  return r;
}

TEST(EngineUpdate, EveryBudgetExitAppliesTheWholeBatch) {
  {
    SCOPED_TRACE("insert cascade");  // d→a closes a cycle: rounds remain
    const UpdateResult r = ChainUpdateOverBudget<TropS>(
        [](const Fixture& f) {
          EdbDelta<TropS> batch;
          batch.Add(f.e, Tuple{f.d, f.a}, 1.0);
          return batch;
        },
        1, 1.0);
    EXPECT_EQ(r.strategy, UpdateStrategy::kInsertOnly);
    EXPECT_EQ(r.rounds, 1);  // the seed alone
  }
  {
    // The budget runs out inside the exact-deletion cascade, before the
    // batch's insert cascade starts: the add must still reach the EDB.
    SCOPED_TRACE("exact deletion");
    const UpdateResult r = ChainUpdateOverBudget<NatS>(
        [](const Fixture& f) {
          EdbDelta<NatS> batch;
          batch.Delete(f.e, {f.a, f.b});
          batch.Add(f.e, Tuple{f.d, f.c}, uint64_t{1});
          return batch;
        },
        1, uint64_t{1});
    EXPECT_EQ(r.strategy, UpdateStrategy::kExactDeletion);
    EXPECT_EQ(r.rounds, 1);
  }
  // Deleting c→d over-deletes T(c,d), T(b,d), T(a,d): DRed's affected
  // cascade takes its seed and one round, and the re-derive seed is the
  // third round. A budget of 1 stops in the affected cascade, before DRed
  // has touched the EDB; a budget of 3 stops in the re-derive cascade.
  for (int budget : {1, 3}) {
    SCOPED_TRACE("DRed, budget " + std::to_string(budget));
    const UpdateResult r = ChainUpdateOverBudget<TropS>(
        [](const Fixture& f) {
          EdbDelta<TropS> batch;
          batch.Delete(f.e, {f.c, f.d});
          batch.Add(f.e, Tuple{f.b, f.d}, 1.0);
          return batch;
        },
        budget, 1.0);
    EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
    EXPECT_EQ(r.rounds, budget);
  }
}

/// Deletes c→d from Chain under kProjected and pins the Update's
/// strategy, rounds and work; its rounds must skip no rule.
template <Pops P>
void DeleteFromProjectedChain(typename P::Value one, UpdateStrategy strategy,
                              int rounds, uint64_t work) {
  constexpr const char* kProjected = R"(
    edb E/2.
    idb T/2.
    idb U/1.
    T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
    U(X) :- T(X,Y).
  )";
  Fixture f(kProjected);
  EdbInstance<P> edb = Chain<P>(f, one);
  Engine<P> eng(f.prog, edb);
  IdbInstance<P> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<P> batch;
  batch.Delete(f.e, {f.c, f.d});
  const uint64_t skipped_before = eng.rules_skipped();
  const UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, strategy);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, rounds);
  EXPECT_EQ(r.work, work);
  EXPECT_EQ(eng.rules_skipped(), skipped_before);
  EXPECT_TRUE(idb.Equals(Golden<P>(f.prog, edb).idb));
}

TEST(EngineUpdate, DeleteCascadesStopWhenDeltaTriggersNoRule) {
  // T is recursive and U(X) :- T(X,Y) reads it. Deleting c→d removes
  // T(c,d), T(b,d), T(a,d) and, through them, mass of U, so both delete
  // cascades end on a δ that lives in U alone and triggers no rule. The
  // cascade stops there, without a round that would skip both rules.
  DeleteFromProjectedChain<NatS>(uint64_t{1}, UpdateStrategy::kExactDeletion,
                                 2, 10);
  DeleteFromProjectedChain<TropS>(1.0, UpdateStrategy::kDred, 3, 17);
}

TEST(EngineUpdate, HubDeleteCostsLessThanRecompute) {
  // Sources s0..s7 all reach the hub h, which has 64 out-edges. Deleting
  // h→v0 prunes T(s_i, v0) and T(h, v0). Re-deriving a pruned T(s_i, v0)
  // through T(X,Z) * E(Z,Y) must start from the one in-edge of v0, not
  // from the 64 surviving T(s_i, ·) rows: the update then visits fewer
  // join entries than a cold recompute of the whole closure.
  Fixture f;
  EdbInstance<TropS> edb(f.prog);
  const ConstId hub = f.dom.InternSymbol("h");
  std::vector<ConstId> leaves;
  for (int i = 0; i < 64; ++i) {
    leaves.push_back(f.dom.InternSymbol("v" + std::to_string(i)));
    edb.pops(f.e).Set({hub, leaves.back()}, 1.0);
  }
  for (int i = 0; i < 8; ++i) {
    edb.pops(f.e).Set({f.dom.InternSymbol("s" + std::to_string(i)), hub},
                      1.0);
  }
  Engine<TropS> eng(f.prog, edb);
  IdbInstance<TropS> idb(f.prog);
  idb.CopyContentsFrom(eng.SemiNaive(100).idb);

  EdbDelta<TropS> batch;
  batch.Delete(f.e, {hub, leaves[0]});
  UpdateResult r = eng.Update(batch, &edb, &idb, 100);
  EXPECT_EQ(r.strategy, UpdateStrategy::kDred);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.deleted_rederived, 0u);

  EdbInstance<TropS> cold(f.prog);
  cold.pops(f.e) = edb.pops(f.e);
  Engine<TropS> cold_eng(f.prog, cold);
  EvalResult<TropS> gold = cold_eng.SemiNaive(100);
  ASSERT_TRUE(gold.converged);
  EXPECT_TRUE(idb.Equals(gold.idb));
  EXPECT_LT(r.work, gold.work);
}

}  // namespace
}  // namespace datalogo
