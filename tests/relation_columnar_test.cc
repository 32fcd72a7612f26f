// The columnar (struct-of-arrays) relation store: tombstone/revive/
// Compact lifecycle, row-id indexes, insertion-order independence, the
// single-probe Merge upsert, the choice between the direct and the hashed
// row-id table, and a randomized-op property check that runs every op
// sequence on both table forms against a reference std::map of the same
// K-relation semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "src/relation/io.h"
#include "src/relation/relation.h"
#include "src/semiring/reals.h"
#include "src/semiring/tropical.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

TEST(ColumnarRelation, TombstoneAndCompactLifecycle) {
  Relation<TropS> r(2);
  r.Set({1, 2}, 5.0);
  r.Set({3, 4}, 7.0);
  r.Set({5, 6}, 9.0);
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.tombstones(), 0u);

  r.Set({3, 4}, TropS::Inf());  // ⊥ tombstones the row in place
  EXPECT_EQ(r.support_size(), 2u);
  EXPECT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.tombstones(), 1u);
  EXPECT_EQ(r.Get({3, 4}), TropS::Inf());
  EXPECT_FALSE(r.Contains({3, 4}));

  uint64_t v = r.version();
  r.Compact();
  EXPECT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.tombstones(), 0u);
  EXPECT_GT(r.version(), v) << "compaction renumbers rows: version must bump";
  EXPECT_EQ(r.Get({1, 2}), 5.0);
  EXPECT_EQ(r.Get({5, 6}), 9.0);

  // Compact with no tombstones: content-neutral, cached indexes (keyed by
  // the version) must stay valid.
  v = r.version();
  r.Compact();
  EXPECT_EQ(r.version(), v);
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST(ColumnarRelation, EraseOfAbsentTupleKeepsVersion) {
  Relation<TropS> r(1);
  r.Set({1}, 2.0);
  uint64_t v = r.version();
  r.Set({9}, TropS::Inf());  // erasing outside the support: no-op
  EXPECT_EQ(r.version(), v);
  r.Set({1}, TropS::Inf());  // erasing a present tuple: mutation
  EXPECT_GT(r.version(), v);
}

TEST(ColumnarRelation, SetAfterEraseRevivesRowInPlace) {
  Relation<TropS> r(2);
  r.Set({1, 2}, 5.0);
  r.Set({1, 2}, TropS::Inf());
  EXPECT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.support_size(), 0u);
  r.Set({1, 2}, 6.0);  // revives the tombstoned row, no new row appended
  EXPECT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.support_size(), 1u);
  EXPECT_EQ(r.Get({1, 2}), 6.0);
}

TEST(ColumnarRelation, InsertionOrderIndependence) {
  // The same support reached through different insertion orders (and a
  // tombstone/revive detour) must compare Equals, render identically, and
  // dump identical TSV — row ids are storage details, not semantics.
  Domain dom;
  for (int i = 0; i < 8; ++i) dom.InternInt(i);
  Relation<TropS> a(2), b(2);
  a.Set({1, 2}, 1.0);
  a.Set({3, 4}, 2.0);
  a.Set({5, 6}, 3.0);
  b.Set({5, 6}, 3.0);
  b.Set({1, 2}, 9.0);
  b.Set({3, 4}, 2.0);
  b.Set({1, 2}, TropS::Inf());
  b.Set({1, 2}, 1.0);
  EXPECT_TRUE(a.Equals(b));
  EXPECT_TRUE(b.Equals(a));
  EXPECT_EQ(a.ToString(dom), b.ToString(dom));
  EXPECT_EQ(DumpTsv(a, dom), DumpTsv(b, dom));
}

TEST(ColumnarRelation, MergeSingleUpsertMatchesGetThenSet) {
  // The single-probe Merge upsert must be observationally identical to
  // the two-lookup reference r(t) ← Set(t, Get(t) ⊕ v), across inserts,
  // accumulations, and interleaved erases (RealPlusS: ⊕ = +, ⊥ = 0).
  std::mt19937 rng(42);
  Relation<RealPlusS> merged(2), reference(2);
  for (int step = 0; step < 2000; ++step) {
    ConstId x = rng() % 6, y = rng() % 6;
    if (rng() % 5 == 0) {
      merged.Set({x, y}, RealPlusS::Bottom());
      reference.Set({x, y}, RealPlusS::Bottom());
      continue;
    }
    double v = static_cast<double>(1 + rng() % 8);
    merged.Merge({x, y}, v);
    reference.Set({x, y}, RealPlusS::Plus(reference.Get({x, y}), v));
  }
  EXPECT_TRUE(merged.Equals(reference));
  EXPECT_TRUE(reference.Equals(merged));
  for (ConstId x = 0; x < 6; ++x) {
    for (ConstId y = 0; y < 6; ++y) {
      EXPECT_EQ(merged.Get({x, y}), reference.Get({x, y}));
    }
  }
}

TEST(ColumnarRelation, IndexSkipsTombstonesAndDecodesRowIds) {
  Relation<TropS> r(2);
  r.Set({1, 10}, 1.0);
  r.Set({1, 20}, 2.0);
  r.Set({2, 10}, 3.0);
  r.Set({1, 20}, TropS::Inf());  // tombstoned: must vanish from indexes

  RelationIndex by_first(r, {0});
  ASSERT_EQ(by_first.Lookup({1}).size(), 1u);
  uint32_t row = by_first.Lookup({1})[0];
  EXPECT_TRUE(r.RowLive(row));
  EXPECT_EQ(r.Cell(row, 0), 1u);
  EXPECT_EQ(r.Cell(row, 1), 10u);
  EXPECT_EQ(r.ValueAt(row), 1.0);

  RelationIndex scan(r, {});
  EXPECT_EQ(scan.Lookup({}).size(), 2u);  // full-scan group skips the dead row
  EXPECT_EQ(&by_first.relation(), &r);
}

TEST(ColumnarRelation, RowViewProbesAcrossRelations) {
  // Get/Set/Merge keyed by another relation's row view — the engine's
  // delta loops — must agree with the Tuple-keyed path.
  Relation<TropS> src(2), dst(2);
  src.Set({1, 2}, 4.0);
  src.Set({3, 4}, 8.0);
  dst.Set({1, 2}, 1.0);
  src.ForEachRow([&](uint32_t row) {
    dst.Merge(src.View(row), src.ValueAt(row));
  });
  EXPECT_EQ(dst.Get({1, 2}), 1.0);  // min(1, 4)
  EXPECT_EQ(dst.Get({3, 4}), 8.0);
  dst.Set(src.View(0), 0.5);
  EXPECT_EQ(dst.Get(src.View(0)), 0.5);
}

/// Reference model: an ordered map with the same support invariant.
/// Vector keys order lexicographically, as SortedLiveRows must.
using RefKey = std::vector<ConstId>;
using RefMap = std::map<RefKey, double>;

constexpr ConstId kSmallIds = 8;    ///< ids of ordinary keys: [0, 8)
constexpr ConstId kLateId = 32;     ///< late keys: [32, 64) — still direct
constexpr ConstId kSparseId = 1u << 26;  ///< 2^(26+b) > kDirectSpanCap

/// The monotone bijection that moves every id of a run far above
/// kDirectSpanCap: the same op sequence run through it keeps its row ids
/// and its sorted order but can only ever use the hashed row-id table.
ConstId ToSparse(ConstId id) { return 0x80000000u + id; }

Tuple ToTuple(const RefKey& key, bool sparse) {
  Tuple t;
  for (ConstId c : key) t.push_back(sparse ? ToSparse(c) : c);
  return t;
}

Relation<TropS> FromReference(const RefMap& ref, int arity, bool sparse) {
  Relation<TropS> out(arity);
  for (const auto& [key, val] : ref) out.Set(ToTuple(key, sparse), val);
  return out;
}

/// Everything observable of the two runs must agree — with each other
/// (ids through ToSparse) and with the reference map.
void ExpectTwinsMatch(const Relation<TropS>& dense,
                      const Relation<TropS>& sparse, const RefMap& ref,
                      const RefKey& probe) {
  ASSERT_EQ(dense.support_size(), ref.size());
  ASSERT_EQ(sparse.support_size(), ref.size());
  ASSERT_EQ(dense.num_rows(), sparse.num_rows());
  ASSERT_EQ(dense.version(), sparse.version());
  ASSERT_EQ(dense.hard_version(), sparse.hard_version());
  ASSERT_EQ(dense.clear_version(), sparse.clear_version());
  for (uint32_t r = 0; r < dense.num_rows(); ++r) {
    ASSERT_EQ(dense.RowLive(r), sparse.RowLive(r)) << "row " << r;
    for (int p = 0; p < dense.arity(); ++p) {
      ASSERT_EQ(ToSparse(dense.Cell(r, p)), sparse.Cell(r, p)) << "row " << r;
    }
    if (dense.RowLive(r)) {
      ASSERT_EQ(dense.ValueAt(r), sparse.ValueAt(r)) << "row " << r;
    }
  }
  const std::vector<uint32_t> sorted = dense.SortedLiveRows();
  ASSERT_EQ(sorted, sparse.SortedLiveRows());
  ASSERT_EQ(sorted.size(), ref.size());
  auto it = ref.begin();
  for (uint32_t r : sorted) {
    RefKey key(static_cast<std::size_t>(dense.arity()));
    for (int p = 0; p < dense.arity(); ++p) key[p] = dense.Cell(r, p);
    ASSERT_EQ(key, it->first);
    ASSERT_EQ(dense.ValueAt(r), it->second);
    ++it;
  }
  for (const auto& [key, val] : ref) {
    ASSERT_EQ(dense.Get(ToTuple(key, false)), val);
    ASSERT_EQ(sparse.Get(ToTuple(key, true)), val);
    ASSERT_TRUE(dense.Contains(ToTuple(key, false)));
    ASSERT_TRUE(sparse.Contains(ToTuple(key, true)));
  }
  const auto found = ref.find(probe);
  const double want = found == ref.end() ? TropS::Inf() : found->second;
  ASSERT_EQ(dense.Get(ToTuple(probe, false)), want);
  ASSERT_EQ(sparse.Get(ToTuple(probe, true)), want);
  ASSERT_EQ(dense.Contains(ToTuple(probe, false)), found != ref.end());
  ASSERT_EQ(sparse.Contains(ToTuple(probe, true)), found != ref.end());
}

/// One random op sequence of `steps` ops at `arity`, applied in lockstep
/// to a relation over dense ids (direct row-id table whenever it fits) and
/// to one over the same ids moved by ToSparse (always hashed).
void RunTwinOps(int arity, int steps, unsigned seed) {
  std::mt19937 rng(seed);
  Relation<TropS> dense(arity), sparse(arity);
  RefMap ref;
  std::vector<RefKey> erased;  // revival candidates
  int direct_steps = 0, hashed_steps = 0;
  const bool may_be_direct = arity == 1 || arity == 2;

  // kind 0: ids in [0, kSmallIds); 1: one late id; 2: one sparse id.
  auto random_key = [&](int kind) {
    RefKey key(static_cast<std::size_t>(arity));
    for (ConstId& c : key) c = rng() % kSmallIds;
    if (kind != 0 && arity > 0) {
      key[rng() % arity] =
          (kind == 1 ? kLateId + rng() % 32 : kSparseId + rng() % 4);
    }
    return key;
  };
  // The key of a stored row (tombstoned ones too), else a random key.
  auto stored_key = [&] {
    if (dense.num_rows() == 0) return random_key(0);
    const uint32_t r = rng() % dense.num_rows();
    RefKey key(static_cast<std::size_t>(arity));
    for (int p = 0; p < arity; ++p) key[p] = dense.Cell(r, p);
    return key;
  };
  auto random_value = [&] { return static_cast<double>(1 + rng() % 9); };
  auto ref_merge = [](RefMap* m, const RefKey& key, double v) {
    if (v == TropS::Inf()) return;  // ⊕ ⊥ changes nothing
    auto [it, fresh] = m->try_emplace(key, v);
    if (!fresh) it->second = TropS::Plus(it->second, v);
  };
  auto set = [&](const RefKey& key, double v) {
    dense.Set(ToTuple(key, false), v);
    sparse.Set(ToTuple(key, true), v);
    if (v == TropS::Inf()) {
      if (ref.erase(key) != 0) erased.push_back(key);
    } else {
      ref[key] = v;
    }
  };
  auto merge = [&](const RefKey& key, double v) {
    dense.Merge(ToTuple(key, false), v);
    sparse.Merge(ToTuple(key, true), v);
    ref_merge(&ref, key, v);
  };
  // Two one-key relations (dense, sparse) whose dense one has the table
  // form `dense` lacks: assigning over them must carry the form along.
  auto other_form_pair = [&] {
    const RefKey key = random_key(dense.direct_slots() ? 2 : 0);
    std::pair<Relation<TropS>, Relation<TropS>> out{arity, arity};
    out.first.Set(ToTuple(key, false), 1.0);
    out.second.Set(ToTuple(key, true), 1.0);
    return out;
  };

  for (int step = 0; step < steps; ++step) {
    const int op = static_cast<int>(rng() % 100);
    const bool was_direct = dense.direct_slots();
    RefKey key = random_key(0);
    if (op < 22) {
      set(key, random_value());
    } else if (op < 40) {
      merge(key, rng() % 10 == 0 ? TropS::Inf() : random_value());
    } else if (op < 47) {  // Set(⊥)
      key = rng() % 2 ? stored_key() : key;
      set(key, TropS::Inf());
    } else if (op < 54) {
      key = rng() % 2 ? stored_key() : key;
      const bool live = ref.erase(key) != 0;
      if (live) erased.push_back(key);
      EXPECT_EQ(dense.Erase(ToTuple(key, false)), live) << "step " << step;
      EXPECT_EQ(sparse.Erase(ToTuple(key, true)), live) << "step " << step;
    } else if (op < 60) {  // revival of an erased key, if still stored
      if (!erased.empty()) key = erased[rng() % erased.size()];
      set(key, random_value());
    } else if (op < 65) {
      dense.Compact();
      sparse.Compact();
    } else if (op < 67) {
      dense.Clear();
      sparse.Clear();
      ref.clear();
    } else if (op < 70) {  // copy: construct, then assign over the other form
      Relation<TropS> dcopy(dense), scopy(sparse);
      EXPECT_EQ(dcopy.direct_slots(), dense.direct_slots());
      EXPECT_EQ(dcopy.SortedLiveRows(), dense.SortedLiveRows());
      EXPECT_TRUE(dcopy.Equals(dense));
      EXPECT_TRUE(scopy.Equals(sparse));
      auto [dtarget, starget] = other_form_pair();
      dtarget = dcopy;
      starget = scopy;
      dense = std::move(dtarget);
      sparse = std::move(starget);
    } else if (op < 73) {  // move: construct, then assign over the other form
      Relation<TropS> dcopy(dense), scopy(sparse);
      Relation<TropS> dmoved(std::move(dcopy)), smoved(std::move(scopy));
      EXPECT_EQ(dcopy.support_size(), 0u);  // moved-from: empty, hashed
      EXPECT_FALSE(dcopy.direct_slots());
      auto [dtarget, starget] = other_form_pair();
      dtarget = std::move(dmoved);
      starget = std::move(smoved);
      dense = dtarget;
      sparse = starget;
    } else if (op < 80) {  // SwapRows: take over a partial's rows
      Relation<TropS> dpart(arity), spart(arity);
      RefMap part;
      for (int i = 0, n = static_cast<int>(rng() % 6); i < n; ++i) {
        const RefKey k = random_key(rng() % 4 == 0 ? 1 : 0);
        const double v = random_value();
        dpart.Merge(ToTuple(k, false), v);
        spart.Merge(ToTuple(k, true), v);
        ref_merge(&part, k, v);
      }
      if (rng() % 2) {  // relay the partial through an empty relation
        Relation<TropS> dempty(arity), sempty(arity);
        dempty.SwapRows(&dpart);
        sempty.SwapRows(&spart);
        EXPECT_EQ(dempty.support_size(), part.size());
        EXPECT_EQ(dpart.support_size(), 0u);
        dpart.SwapRows(&dempty);
        spart.SwapRows(&sempty);
      }
      const uint64_t hard = dense.hard_version();
      dense.SwapRows(&dpart);
      sparse.SwapRows(&spart);
      // Soft on both sides: recorded as a Clear, never a hard bump.
      EXPECT_EQ(dense.hard_version(), hard) << "step " << step;
      EXPECT_EQ(dense.clear_version(), dense.version()) << "step " << step;
      EXPECT_EQ(dpart.clear_version(), dpart.version()) << "step " << step;
      // The partial now holds our old rows, and stays usable.
      const RefKey k = random_key(0);
      const double v = random_value();
      dpart.Merge(ToTuple(k, false), v);
      spart.Merge(ToTuple(k, true), v);
      RefMap old = ref;
      ref_merge(&old, k, v);
      EXPECT_TRUE(dpart.Equals(FromReference(old, arity, false)))
          << "step " << step;
      EXPECT_TRUE(spart.Equals(FromReference(old, arity, true)))
          << "step " << step;
      ref = std::move(part);
    } else if (op < 86) {  // a RowView of the relation's own row
      if (dense.num_rows() != 0) {
        const uint32_t r = rng() % dense.num_rows();
        for (int p = 0; p < arity; ++p) key[p] = dense.Cell(r, p);
        const double v = random_value();
        if (rng() % 2) {
          dense.Merge(dense.View(r), v);
          sparse.Merge(sparse.View(r), v);
          ref_merge(&ref, key, v);
        } else {
          dense.Set(dense.View(r), v);
          sparse.Set(sparse.View(r), v);
          ref[key] = v;
        }
      }
    } else if (op < 92) {  // late key: a direct table re-lays out, direct
      key = random_key(1);
      merge(key, random_value());
      if (was_direct) {
        EXPECT_TRUE(dense.direct_slots()) << "step " << step;
      }
    } else if (op < 94) {  // sparse key: a direct table turns hashed
      key = random_key(2);
      if (rng() % 2) {
        set(key, random_value());
      } else {
        merge(key, rng() % 2 ? TropS::Inf() : random_value());
      }
      EXPECT_FALSE(may_be_direct && dense.direct_slots()) << "step " << step;
    }  // else: probe only
    ASSERT_NO_FATAL_FAILURE(ExpectTwinsMatch(dense, sparse, ref, key))
        << "step " << step << " op " << op;
    // Only an empty store (compacted to no rows) fits far-sparse ids.
    EXPECT_FALSE(sparse.direct_slots() && sparse.num_rows() != 0)
        << "step " << step;
    (dense.direct_slots() ? direct_steps : hashed_steps)++;
    if (step % 97 == 0) {
      const Relation<TropS> dmirror = FromReference(ref, arity, false);
      const Relation<TropS> smirror = FromReference(ref, arity, true);
      ASSERT_TRUE(dense.Equals(dmirror)) << "step " << step;
      ASSERT_TRUE(dmirror.Equals(dense)) << "step " << step;
      ASSERT_TRUE(sparse.Equals(smirror)) << "step " << step;
      ASSERT_TRUE(smirror.Equals(sparse)) << "step " << step;
    }
  }
  if (may_be_direct) {  // both table forms were exercised
    EXPECT_GT(direct_steps, 0);
    EXPECT_GT(hashed_steps, 0);
  } else {
    EXPECT_EQ(direct_steps, 0);
  }
}

TEST(ColumnarRelation, RandomizedOpsMatchReferenceMap) {
  // Property test: random interleavings of Set, Set(⊥), Erase, revival,
  // Merge, Clear, Compact, copy, move, SwapRows, own-row RowViews, late
  // and sparse keys, at arities 0–3. Each sequence runs twice — on dense
  // ids (direct row-id table) and on far-sparse ids (hashed) — and both
  // runs must match the reference map and each other at every step.
  const int steps = CiIterations(4000, 800);
  for (int arity = 0; arity <= 3; ++arity) {
    SCOPED_TRACE(::testing::Message() << "arity " << arity);
    RunTwinOps(arity, steps, 7u + static_cast<unsigned>(arity));
  }
}

TEST(ColumnarRelation, DirectTableFormFollowsContent) {
  // The table form is a function of the stored ids: dense arity-1/2 keys
  // go direct, a key that does not fit turns the table hashed, and a
  // Compact that drops that key goes back to direct. Arity 0 and 3 hash.
  Relation<TropS> pairs(2);
  EXPECT_FALSE(pairs.direct_slots());  // no table before the first insert
  pairs.Set({3, 200}, 1.0);  // 2^(2+8) slots
  EXPECT_TRUE(pairs.direct_slots());
  pairs.Set({15, 0}, 2.0);  // out of range: re-laid out, still direct
  EXPECT_TRUE(pairs.direct_slots());
  pairs.Set({kSparseId, 1}, 3.0);
  EXPECT_FALSE(pairs.direct_slots());
  EXPECT_EQ(pairs.Get({3, 200}), 1.0);
  pairs.Erase({kSparseId, 1});
  pairs.Compact();
  EXPECT_TRUE(pairs.direct_slots());
  EXPECT_EQ(pairs.Get({15, 0}), 2.0);
  EXPECT_EQ(pairs.Get({kSparseId, 1}), TropS::Inf());

  Relation<TropS> unary(1);
  unary.Set({4095}, 1.0);  // 4096 slots: within the floor
  EXPECT_TRUE(unary.direct_slots());
  Relation<TropS> wide(1);
  wide.Set({kSparseId}, 1.0);
  EXPECT_FALSE(wide.direct_slots());

  // A large dense relation starts hashed (its slot array would dwarf a
  // tiny hashed table) and goes direct once growth makes it pay.
  Relation<TropS> grid(2);
  grid.Set({255, 255}, 1.0);
  EXPECT_FALSE(grid.direct_slots());
  for (ConstId i = 0; i < 256; ++i) {
    for (ConstId j = 0; j < 256; ++j) grid.Merge({i, j}, 2.0);
  }
  EXPECT_TRUE(grid.direct_slots());
  const std::vector<uint32_t> sorted = grid.SortedLiveRows();
  ASSERT_EQ(sorted.size(), 256u * 256u);
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                             [&](uint32_t a, uint32_t b) {
                               return std::pair(grid.Cell(a, 0),
                                                grid.Cell(a, 1)) <
                                      std::pair(grid.Cell(b, 0),
                                                grid.Cell(b, 1));
                             }));

  Relation<TropS> nullary(0), triples(3);
  nullary.Set({}, 1.0);
  triples.Set({1, 2, 3}, 1.0);
  EXPECT_FALSE(nullary.direct_slots());
  EXPECT_FALSE(triples.direct_slots());
}

TEST(ColumnarRelation, CopyAndMoveSemantics) {
  Relation<TropS> a(2);
  a.Set({1, 2}, 3.0);
  a.Set({4, 5}, 6.0);
  a.Set({1, 2}, TropS::Inf());  // leave a tombstone in the source

  Relation<TropS> copy(a);
  EXPECT_NE(copy.uid(), a.uid()) << "copies are new objects";
  EXPECT_TRUE(copy.Equals(a));

  uint64_t src_version = a.version();
  Relation<TropS> moved(std::move(a));
  EXPECT_TRUE(moved.Equals(copy));
  EXPECT_EQ(a.support_size(), 0u);  // moved-from: empty but usable
  EXPECT_GT(a.version(), src_version);
  a.Set({7, 7}, 1.0);
  EXPECT_EQ(a.Get({7, 7}), 1.0);
}

}  // namespace
}  // namespace datalogo
