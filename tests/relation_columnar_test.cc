// The columnar (struct-of-arrays) relation store: tombstone/revive/
// Compact lifecycle, row-id indexes, insertion-order independence, the
// single-probe Merge upsert, and a randomized-op property check against a
// reference std::map implementation of the same K-relation semantics.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "src/relation/io.h"
#include "src/relation/relation.h"
#include "src/semiring/reals.h"
#include "src/semiring/tropical.h"

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

  RelationIndex<TropS> by_first(r, {0});
  ASSERT_EQ(by_first.Lookup({1}).size(), 1u);
  uint32_t row = by_first.Lookup({1})[0];
  EXPECT_TRUE(r.RowLive(row));
  EXPECT_EQ(r.Cell(row, 0), 1u);
  EXPECT_EQ(r.Cell(row, 1), 10u);
  EXPECT_EQ(r.ValueAt(row), 1.0);

  RelationIndex<TropS> scan(r, {});
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

/// Reference model: plain ordered map with the same support invariant.
using RefMap = std::map<std::pair<ConstId, ConstId>, double>;

Relation<TropS> FromReference(const RefMap& ref) {
  Relation<TropS> out(2);
  for (const auto& [key, val] : ref) out.Set({key.first, key.second}, val);
  return out;
}

TEST(ColumnarRelation, RandomizedOpsMatchReferenceMap) {
  // Property test: an arbitrary interleaving of Set/Merge/erase/Clear/
  // Compact leaves the columnar store Equals-identical to a reference
  // map-based relation, in both directions, at every checkpoint.
  std::mt19937 rng(7);
  Relation<TropS> rel(2);
  RefMap ref;
  for (int step = 0; step < 5000; ++step) {
    int op = static_cast<int>(rng() % 100);
    ConstId x = rng() % 7, y = rng() % 7;
    if (op < 40) {
      double v = static_cast<double>(1 + rng() % 9);
      rel.Set({x, y}, v);
      ref[{x, y}] = v;
    } else if (op < 70) {
      double v = static_cast<double>(1 + rng() % 9);
      rel.Merge({x, y}, v);
      auto it = ref.find({x, y});
      if (it == ref.end()) {
        ref[{x, y}] = v;
      } else {
        it->second = TropS::Plus(it->second, v);
      }
    } else if (op < 85) {
      rel.Set({x, y}, TropS::Inf());
      ref.erase({x, y});
    } else if (op < 93) {
      rel.Compact();
    } else if (op < 95) {
      rel.Clear();
      ref.clear();
    } else {
      double got = rel.Get({x, y});
      auto it = ref.find({x, y});
      EXPECT_EQ(got, it == ref.end() ? TropS::Inf() : it->second);
    }
    ASSERT_EQ(rel.support_size(), ref.size()) << "step " << step;
    if (step % 97 == 0) {
      Relation<TropS> mirror = FromReference(ref);
      ASSERT_TRUE(rel.Equals(mirror)) << "step " << step;
      ASSERT_TRUE(mirror.Equals(rel)) << "step " << step;
    }
  }
  Relation<TropS> mirror = FromReference(ref);
  EXPECT_TRUE(rel.Equals(mirror));
  EXPECT_TRUE(mirror.Equals(rel));
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
