// Tiered RelationIndex (relation.h): whichever tier the data picks —
// direct (offset-addressed), hash or all-rows — an index must serve
// exactly the live rows whose key columns equal the probe, in ascending
// row order, over randomized id distributions, both sides of the density
// rule, the span cap, tombstoned rows and post-Compact rebuilds. Plus the
// IndexCache refresh ladder: cache hits scan nothing, soft mutations
// refresh incrementally (counted into incremental_appends with
// builds/hits unchanged relative to the rebuild-everything behaviour),
// hard mutations rebuild and re-pick the tier, and one cache keeps the
// relations of different value spaces apart.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "src/relation/relation.h"
#include "src/semiring/boolean.h"
#include "src/semiring/tropical.h"

namespace datalogo {
namespace {

/// Probes: every id in [0, max_id], a band beyond it, and extremes —
/// covers present keys, absent in-range keys, and the direct tier's
/// bounds check (including the unsigned-wrap path below base).
std::vector<Tuple> SingleColumnProbes(uint32_t max_id) {
  std::vector<Tuple> probes;
  for (uint32_t v = 0; v <= max_id + 8; ++v) probes.push_back({v});
  probes.push_back({0x7FFFFFFFu});
  probes.push_back({0xFFFFFFFFu});
  return probes;
}

/// Brute-force reference lookup: the live rows whose key columns equal
/// `key`, ascending.
RowIdList ScanLookup(const Relation<TropS>& rel,
                     const std::vector<int>& positions, const Tuple& key) {
  RowIdList rows;
  for (uint32_t r = 0; r < rel.num_rows(); ++r) {
    if (!rel.RowLive(r)) continue;
    bool match = true;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      match = match && rel.Cell(r, positions[i]) == key[i];
    }
    if (match) rows.push_back(r);
  }
  return rows;
}

/// The index the data picks must agree with the scan on every probe,
/// list order included.
void ExpectIndexMatchesScan(const Relation<TropS>& rel,
                            const std::vector<int>& positions,
                            const std::vector<Tuple>& probes) {
  RelationIndex idx(rel, positions);
  for (const Tuple& key : probes) {
    EXPECT_EQ(ScanLookup(rel, positions, key), idx.Lookup(key))
        << "repr=" << static_cast<int>(idx.repr())
        << " key0=" << (key.size() ? key[0] : 0);
  }
}

TEST(RelationIndex, DenseIdsSelectDirectAndMatchScan) {
  std::mt19937 rng(11);
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 200; ++i) {
    r.Set({i % 64, static_cast<uint32_t>(rng() % 64)},
          static_cast<double>(rng() % 100));
  }
  RelationIndex idx(r, {0});
  EXPECT_EQ(idx.repr(), IndexRepr::kDirectArray);
  EXPECT_FALSE(idx.is_hash());
  ExpectIndexMatchesScan(r, {0}, SingleColumnProbes(63));
  ExpectIndexMatchesScan(r, {1}, SingleColumnProbes(63));
}

TEST(RelationIndex, SparseIdsSelectHashAndMatchScan) {
  std::mt19937 rng(12);
  Relation<TropS> r(2);
  std::vector<Tuple> probes;
  for (int i = 0; i < 40; ++i) {
    uint32_t k = rng() % (1u << 19);  // sparse but under kDirectSpanCap
    probes.push_back({k});
    probes.push_back({k + 1});
    r.Set({k, static_cast<uint32_t>(rng() % 8)}, static_cast<double>(i));
  }
  RelationIndex idx(r, {0});
  EXPECT_EQ(idx.repr(), IndexRepr::kHashMap);
  EXPECT_TRUE(idx.is_hash());
  ExpectIndexMatchesScan(r, {0}, probes);
}

TEST(RelationIndex, SpanBeyondCapFallsBackToHashEvenWhenDense) {
  // 300000 keys at stride 3: span 899998 <= 4*live + 256 and under
  // kDirectSpanCap = 2^20, so the column is direct. One more key just
  // above 2^20 keeps it dense by the 4*live + 256 rule (1200260 >= span)
  // but pushes the span past the cap: only the cap can make it hash.
  Relation<TropS> r(1);
  for (uint32_t i = 0; i < 300000; ++i) r.Set({3 * i}, 1.0);
  EXPECT_EQ(RelationIndex(r, {0}).repr(), IndexRepr::kDirectArray);
  const uint32_t far = (1u << 20) + 4;
  r.Set({far}, 2.0);
  ASSERT_LE(uint64_t{far} + 1, 4 * uint64_t{r.support_size()} + 256);
  ASSERT_GT(uint64_t{far} + 1, kDirectSpanCap);
  RelationIndex idx(r, {0});
  EXPECT_EQ(idx.repr(), IndexRepr::kHashMap);
  for (uint32_t k : {0u, 3u, 17u, 899997u, 899998u, far - 1, far, far + 1}) {
    EXPECT_EQ(ScanLookup(r, {0}, {k}), idx.Lookup({k})) << k;
  }
}

TEST(RelationIndex, AutoThresholdStraddle) {
  // 50 dense keys 0..49 plus one outlier K: live = 51, span = K + 1,
  // and the density rule is span <= 4*live + 256 = 460. K = 459
  // sits exactly on the boundary (direct); K = 460 tips it to hash.
  for (uint32_t outlier : {459u, 460u}) {
    Relation<TropS> r(2);
    for (uint32_t i = 0; i < 50; ++i) r.Set({i, i}, 1.0);
    r.Set({outlier, 7}, 2.0);
    RelationIndex idx(r, {0});
    EXPECT_EQ(idx.repr(), outlier == 459u ? IndexRepr::kDirectArray
                                          : IndexRepr::kHashMap)
        << "outlier=" << outlier;
    ExpectIndexMatchesScan(r, {0}, SingleColumnProbes(outlier));
  }
}

TEST(RelationIndex, TombstonedRowsExcludedFromEveryTier) {
  // Stride 1 keeps column 0 dense (direct tier); stride 1000 spreads its
  // 8 keys over a span of 7001 > 4*live + 256 (hash tier).
  for (uint32_t stride : {1u, 1000u}) {
    SCOPED_TRACE(stride);
    Relation<TropS> r(2);
    for (uint32_t i = 0; i < 32; ++i) r.Set({i % 8 * stride, i}, 1.0);
    for (uint32_t i = 0; i < 32; i += 3) {
      r.Set({i % 8 * stride, i}, TropS::Inf());  // ⊥ tombstones the row
    }
    ASSERT_GT(r.tombstones(), 0u);
    EXPECT_EQ(RelationIndex(r, {0}).is_hash(), stride != 1);
    std::vector<Tuple> probes = SingleColumnProbes(8);
    for (uint32_t k = 0; k < 9; ++k) probes.push_back({k * stride});
    ExpectIndexMatchesScan(r, {0}, probes);
    ExpectIndexMatchesScan(r, {}, {Tuple{}});
    // Post-Compact the surviving rows are renumbered; the index agrees
    // on the new ids too.
    r.Compact();
    ASSERT_EQ(r.tombstones(), 0u);
    ExpectIndexMatchesScan(r, {0}, probes);
    ExpectIndexMatchesScan(r, {}, {Tuple{}});
  }
}

TEST(RelationIndex, RandomizedMutationEquivalence) {
  for (uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    Relation<TropS> r(2);
    const uint32_t id_range = seed % 2 ? 48 : 4000;  // dense and sparse
    for (int op = 0; op < 300; ++op) {
      uint32_t a = rng() % id_range, b = rng() % 16;
      switch (rng() % 4) {
        case 0:
          r.Set({a, b}, static_cast<double>(rng() % 50));
          break;
        case 1:
          r.Merge({a, b}, static_cast<double>(rng() % 50));
          break;
        case 2:
          r.Set({a, b}, TropS::Inf());  // tombstone (or no-op if absent)
          break;
        case 3:
          if (rng() % 8 == 0) r.Compact();
          break;
      }
    }
    std::vector<Tuple> probes;
    for (int i = 0; i < 64; ++i) {
      probes.push_back({static_cast<uint32_t>(rng() % (id_range + 8))});
    }
    ExpectIndexMatchesScan(r, {0}, probes);
    std::vector<Tuple> pair_probes;
    for (int i = 0; i < 64; ++i) {
      pair_probes.push_back({static_cast<uint32_t>(rng() % (id_range + 8)),
                             static_cast<uint32_t>(rng() % 18)});
    }
    ExpectIndexMatchesScan(r, {0, 1}, pair_probes);  // multi-col: hash tier
  }
}

TEST(RelationIndex, EmptyRelationEveryTier) {
  Relation<TropS> r(2);
  RelationIndex direct(r, {0});
  EXPECT_EQ(direct.repr(), IndexRepr::kDirectArray);
  EXPECT_EQ(direct.Lookup({0}).size(), 0u);
  EXPECT_EQ(direct.Lookup({12345}).size(), 0u);
  RelationIndex hash(r, {0, 1});
  EXPECT_EQ(hash.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(hash.Lookup({0, 0}).size(), 0u);
  RelationIndex all(r, {});
  EXPECT_EQ(all.repr(), IndexRepr::kAllRows);
  EXPECT_EQ(all.Lookup({}).size(), 0u);
}

// ------------------------------------------------------------ IndexCache

TEST(IndexCache, HitPathScansNothing) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 20; ++i) r.Set({i, i}, 1.0);
  IndexCache cache;
  cache.Get(r, {0});
  const uint64_t scans_after_build = cache.scan_rows();
  EXPECT_GT(scans_after_build, 0u);
  for (int i = 0; i < 5; ++i) cache.Get(r, {0});
  EXPECT_EQ(cache.scan_rows(), scans_after_build);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 5u);
}

TEST(IndexCache, AppendOnlyMutationRefreshesIncrementally) {
  // Keys 1000 apart: the column is sparse, so the hash tier serves it.
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i * 1000, i}, 1.0);
  IndexCache cache;
  const RelationIndex* idx = &cache.Get(r, {0});
  ASSERT_EQ(idx->repr(), IndexRepr::kHashMap);
  for (uint32_t i = 10; i < 15; ++i) r.Set({i * 1000, i}, 1.0);  // soft
  const RelationIndex* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);  // refreshed in place, not replaced
  EXPECT_EQ(cache.builds(), 2u);  // refresh still counts as a build
  EXPECT_EQ(cache.incremental_appends(), 5u);
  for (uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(ScanLookup(r, {0}, {v * 1000}), idx2->Lookup({v * 1000})) << v;
    EXPECT_EQ(idx2->Lookup({v * 1000 + 1}).size(), 0u) << v;
  }
}

TEST(IndexCache, DirectTierAppendsInRangeWithoutRebuild) {
  // A direct index refreshes in place as long as appended keys stay in
  // its bucket range — build with a span that already covers them.
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  r.Set({19, 0}, 5.0);  // stretch the span to 20 up front
  IndexCache cache;
  const RelationIndex* idx = &cache.Get(r, {0});
  ASSERT_EQ(idx->repr(), IndexRepr::kDirectArray);
  for (uint32_t i = 10; i < 15; ++i) r.Set({i, i}, 1.0);  // in range
  const RelationIndex* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(idx2->repr(), IndexRepr::kDirectArray);
  EXPECT_EQ(cache.incremental_appends(), 5u);
  RelationIndex fresh(r, {0});
  for (uint32_t v = 0; v < 22; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
}

TEST(IndexCache, ClearRefillRefreshesByReappend) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache cache;
  const RelationIndex* idx = &cache.Get(r, {0});
  r.Clear();
  for (uint32_t i = 0; i < 7; ++i) r.Set({i + 2, i}, 3.0);
  const RelationIndex* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(cache.incremental_appends(), 7u);
  RelationIndex fresh(r, {0});
  for (uint32_t v = 0; v < 12; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
  EXPECT_EQ(idx2->Lookup({0}).size(), 0u);  // old key really gone
}

TEST(IndexCache, HardMutationRebuilds) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache cache;
  cache.Get(r, {0});
  r.Set({4, 4}, TropS::Inf());  // tombstone: membership shrank, hard
  const RelationIndex& idx = cache.Get(r, {0});
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.incremental_appends(), 0u);  // no refresh was possible
  EXPECT_EQ(idx.Lookup({4}).size(), 0u);
  EXPECT_EQ(idx.Lookup({5}).size(), 1u);
}

TEST(IndexCache, RangeEscapingAppendRebuildsAndRepicksTier) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache cache;
  const RelationIndex& before = cache.Get(r, {0});
  EXPECT_EQ(before.repr(), IndexRepr::kDirectArray);
  // A soft append whose key escapes the direct tier's bucket range: the
  // in-place refresh must refuse (no partial mutation) and the rebuild
  // re-picks the tier — now hash, the column having gone sparse.
  r.Set({5000, 1}, 2.0);
  const RelationIndex& after = cache.Get(r, {0});
  EXPECT_EQ(after.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(after.Lookup({5000}).size(), 1u);
  EXPECT_EQ(after.Lookup({3}).size(), 1u);
  EXPECT_EQ(cache.incremental_appends(), 0u);
}

TEST(IndexCache, BuildAndHitCountersIdenticalAcrossTiers) {
  // The four pinned engine counters derive from builds()/hits(); they
  // must not depend on which tier serves the lookups. The same mutation
  // sequence runs over a dense relation (direct tier) and over a sparse
  // one (keys `stride` apart, hash tier).
  auto run = [](uint32_t stride, IndexRepr want) {
    Relation<TropS> r(2);
    IndexCache cache;
    for (uint32_t i = 0; i < 10; ++i) r.Set({i * stride, i}, 1.0);
    EXPECT_EQ(cache.Get(r, {0}).repr(), want) << stride;
    cache.Get(r, {0});
    for (uint32_t i = 10; i < 14; ++i) r.Set({i * stride, i}, 1.0);
    cache.Get(r, {0});
    r.Clear();
    for (uint32_t i = 0; i < 6; ++i) r.Set({i * stride, i}, 2.0);
    cache.Get(r, {0});
    r.Set({2 * stride, 2}, TropS::Inf());
    cache.Get(r, {0});
    return std::pair<uint64_t, uint64_t>(cache.builds(), cache.hits());
  };
  EXPECT_EQ(run(1, IndexRepr::kDirectArray), run(1000, IndexRepr::kHashMap));
}

TEST(IndexCache, PinnedEntriesSurviveEviction) {
  Relation<TropS> pinned_rel(1), transient_rel(1);
  pinned_rel.Set({1}, 1.0);
  transient_rel.Set({2}, 2.0);
  IndexCache cache;
  cache.Get(pinned_rel, {0}, /*pin=*/true);
  cache.Get(transient_rel, {0});
  cache.MaybeEvict();
  cache.MaybeEvict();  // transient idle for a full epoch: dropped
  cache.Get(pinned_rel, {0});
  cache.Get(transient_rel, {0});
  EXPECT_EQ(cache.builds(), 3u);  // only the transient entry rebuilt
  EXPECT_EQ(cache.hits(), 1u);    // the pinned entry was still there
}

TEST(IndexCache, OneCacheServesEveryValueSpace) {
  // The engine's single cache indexes POPS and Boolean atoms alike: a
  // Relation<TropS> and a Relation<BoolS> with the same keys, indexed on
  // the same positions, get separate entries (distinct uids), each with
  // its own build, its own hits and its own rows.
  Relation<TropS> trop(2);
  Relation<BoolS> bools(2);
  for (uint32_t i = 0; i < 10; ++i) {
    trop.Set({i, i + 1}, 1.0);
    if (i % 2 == 0) bools.Set({i, i + 1}, true);
  }
  IndexCache cache;
  const RelationIndex& ti = cache.Get(trop, {0});
  const RelationIndex& bi = cache.Get(bools, {0});
  EXPECT_NE(&ti, &bi);
  EXPECT_EQ(&ti.relation(), &trop);
  EXPECT_EQ(&bi.relation(), &bools);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(&cache.Get(trop, {0}), &ti);
  EXPECT_EQ(&cache.Get(bools, {0}), &bi);
  EXPECT_EQ(&cache.Get(bools, {0}), &bi);
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.hits(), 3u);
  for (uint32_t v = 0; v < 10; ++v) {
    EXPECT_EQ(ti.Lookup({v}), ScanLookup(trop, {0}, {v})) << v;
    EXPECT_EQ(bi.Lookup({v}).size(), v % 2 == 0 ? 1u : 0u) << v;
  }
  // Mutating one relation rebuilds its entry only.
  bools.Set({1, 2}, true);
  cache.Get(trop, {0});
  EXPECT_EQ(cache.Get(bools, {0}).Lookup({1}).size(), 1u);
  EXPECT_EQ(cache.builds(), 3u);
  EXPECT_EQ(cache.hits(), 4u);
}

}  // namespace
}  // namespace datalogo
