// Tiered RelationIndex (relation.h): the direct (offset-addressed) and
// all-rows tiers must serve exactly the entry lists of the hash tier —
// same row ids, same order — over randomized id distributions, forced
// and auto selection, tombstoned rows and post-Compact rebuilds. Plus the IndexCache refresh ladder: cache hits
// scan nothing, soft mutations refresh incrementally (counted into
// incremental_appends with builds/hits unchanged relative to the
// rebuild-everything behaviour), hard mutations rebuild and re-pick the
// tier.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "src/relation/relation.h"
#include "src/semiring/tropical.h"

namespace datalogo {
namespace {

constexpr IndexKind kAllKinds[] = {IndexKind::kHash, IndexKind::kDirect,
                                   IndexKind::kAuto};

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

/// Every index kind must agree with the hash reference on every probe,
/// list order included.
void ExpectTiersEquivalent(const Relation<TropS>& rel,
                           const std::vector<int>& positions,
                           const std::vector<Tuple>& probes) {
  RelationIndex<TropS> ref(rel, positions, {IndexKind::kHash});
  for (IndexKind kind : kAllKinds) {
    RelationIndex<TropS> idx(rel, positions, {kind});
    for (const Tuple& key : probes) {
      EXPECT_EQ(ref.Lookup(key), idx.Lookup(key))
          << "kind=" << static_cast<int>(kind)
          << " key0=" << (key.size() ? key[0] : 0);
    }
  }
}

TEST(RelationIndex, DenseIdsSelectDirectAndAgreeWithHash) {
  std::mt19937 rng(11);
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 200; ++i) {
    r.Set({i % 64, static_cast<uint32_t>(rng() % 64)},
          static_cast<double>(rng() % 100));
  }
  RelationIndex<TropS> auto_idx(r, {0}, {IndexKind::kAuto});
  EXPECT_EQ(auto_idx.repr(), IndexRepr::kDirectArray);
  EXPECT_FALSE(auto_idx.is_hash());
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(63));
  ExpectTiersEquivalent(r, {1}, SingleColumnProbes(63));
}

TEST(RelationIndex, SparseIdsSelectHashAndAgreeWithForcedDirect) {
  std::mt19937 rng(12);
  Relation<TropS> r(2);
  std::vector<uint32_t> keys;
  for (int i = 0; i < 40; ++i) {
    uint32_t k = rng() % (1u << 19);  // sparse but under kDirectSpanCap
    keys.push_back(k);
    r.Set({k, static_cast<uint32_t>(rng() % 8)}, static_cast<double>(i));
  }
  RelationIndex<TropS> auto_idx(r, {0}, {IndexKind::kAuto});
  EXPECT_EQ(auto_idx.repr(), IndexRepr::kHashMap);
  // Forced direct on a sparse-but-in-cap column: wasteful, still exact.
  RelationIndex<TropS> forced(r, {0}, {IndexKind::kDirect});
  EXPECT_EQ(forced.repr(), IndexRepr::kDirectArray);
  RelationIndex<TropS> ref(r, {0}, {IndexKind::kHash});
  for (uint32_t k : keys) {
    EXPECT_EQ(ref.Lookup({k}), forced.Lookup({k}));
    EXPECT_EQ(ref.Lookup({k}), auto_idx.Lookup({k}));
    EXPECT_EQ(ref.Lookup({k + 1}), forced.Lookup({k + 1}));
  }
}

TEST(RelationIndex, SpanBeyondCapFallsBackToHashEvenWhenForced) {
  Relation<TropS> r(1);
  r.Set({0}, 1.0);
  r.Set({(1u << 20) + 5}, 2.0);  // span exceeds kDirectSpanCap
  RelationIndex<TropS> forced(r, {0}, {IndexKind::kDirect});
  EXPECT_EQ(forced.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(forced.Lookup({0}).size(), 1u);
  EXPECT_EQ(forced.Lookup({(1u << 20) + 5}).size(), 1u);
  EXPECT_EQ(forced.Lookup({17}).size(), 0u);
}

TEST(RelationIndex, AutoThresholdStraddle) {
  // 50 dense keys 0..49 plus one outlier K: live = 51, span = K + 1,
  // and the kAuto density rule is span <= 4*live + 256 = 460. K = 459
  // sits exactly on the boundary (direct); K = 460 tips it to hash.
  for (uint32_t outlier : {459u, 460u}) {
    Relation<TropS> r(2);
    for (uint32_t i = 0; i < 50; ++i) r.Set({i, i}, 1.0);
    r.Set({outlier, 7}, 2.0);
    RelationIndex<TropS> idx(r, {0}, {IndexKind::kAuto});
    EXPECT_EQ(idx.repr(), outlier == 459u ? IndexRepr::kDirectArray
                                          : IndexRepr::kHashMap)
        << "outlier=" << outlier;
    ExpectTiersEquivalent(r, {0}, SingleColumnProbes(outlier));
  }
}

TEST(RelationIndex, TombstonedRowsExcludedFromEveryTier) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 32; ++i) r.Set({i % 8, i}, 1.0);
  for (uint32_t i = 0; i < 32; i += 3) {
    r.Set({i % 8, i}, TropS::Inf());  // ⊥ tombstones the row
  }
  ASSERT_GT(r.tombstones(), 0u);
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(8));
  ExpectTiersEquivalent(r, {}, {Tuple{}});
  // Post-Compact the surviving rows are renumbered; all tiers agree on
  // the new ids too.
  r.Compact();
  ASSERT_EQ(r.tombstones(), 0u);
  ExpectTiersEquivalent(r, {0}, SingleColumnProbes(8));
  ExpectTiersEquivalent(r, {}, {Tuple{}});
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
    ExpectTiersEquivalent(r, {0}, probes);
    std::vector<Tuple> pair_probes;
    for (int i = 0; i < 64; ++i) {
      pair_probes.push_back({static_cast<uint32_t>(rng() % (id_range + 8)),
                             static_cast<uint32_t>(rng() % 18)});
    }
    ExpectTiersEquivalent(r, {0, 1}, pair_probes);  // multi-col: hash tier
  }
}

TEST(RelationIndex, EmptyRelationEveryTier) {
  Relation<TropS> r(2);
  for (IndexKind kind : kAllKinds) {
    RelationIndex<TropS> idx(r, {0}, {kind});
    EXPECT_EQ(idx.Lookup({0}).size(), 0u);
    EXPECT_EQ(idx.Lookup({12345}).size(), 0u);
  }
}

// ------------------------------------------------------------ IndexCache

TEST(IndexCache, HitPathScansNothing) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 20; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.Get(r, {0});
  const uint64_t scans_after_build = cache.scan_rows();
  EXPECT_GT(scans_after_build, 0u);
  for (int i = 0; i < 5; ++i) cache.Get(r, {0});
  EXPECT_EQ(cache.scan_rows(), scans_after_build);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.hits(), 5u);
}

TEST(IndexCache, AppendOnlyMutationRefreshesIncrementally) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.set_config({IndexKind::kHash});
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  for (uint32_t i = 10; i < 15; ++i) r.Set({i, i}, 1.0);  // soft appends
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);  // refreshed in place, not replaced
  EXPECT_EQ(cache.builds(), 2u);  // refresh still counts as a build
  EXPECT_EQ(cache.incremental_appends(), 5u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 20; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
}

TEST(IndexCache, DirectTierAppendsInRangeWithoutRebuild) {
  // A direct index refreshes in place as long as appended keys stay in
  // its bucket range — build with a span that already covers them.
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  r.Set({19, 0}, 5.0);  // stretch the span to 20 up front
  IndexCache<TropS> cache;
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  ASSERT_EQ(idx->repr(), IndexRepr::kDirectArray);
  for (uint32_t i = 10; i < 15; ++i) r.Set({i, i}, 1.0);  // in range
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(idx2->repr(), IndexRepr::kDirectArray);
  EXPECT_EQ(cache.incremental_appends(), 5u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 22; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
}

TEST(IndexCache, ClearRefillRefreshesByReappend) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  const RelationIndex<TropS>* idx = &cache.Get(r, {0});
  r.Clear();
  for (uint32_t i = 0; i < 7; ++i) r.Set({i + 2, i}, 3.0);
  const RelationIndex<TropS>* idx2 = &cache.Get(r, {0});
  EXPECT_EQ(idx, idx2);
  EXPECT_EQ(cache.incremental_appends(), 7u);
  RelationIndex<TropS> fresh(r, {0});
  for (uint32_t v = 0; v < 12; ++v) {
    EXPECT_EQ(fresh.Lookup({v}), idx2->Lookup({v})) << v;
  }
  EXPECT_EQ(idx2->Lookup({0}).size(), 0u);  // old key really gone
}

TEST(IndexCache, HardMutationRebuilds) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  cache.Get(r, {0});
  r.Set({4, 4}, TropS::Inf());  // tombstone: membership shrank, hard
  const RelationIndex<TropS>& idx = cache.Get(r, {0});
  EXPECT_EQ(cache.builds(), 2u);
  EXPECT_EQ(cache.incremental_appends(), 0u);  // no refresh was possible
  EXPECT_EQ(idx.Lookup({4}).size(), 0u);
  EXPECT_EQ(idx.Lookup({5}).size(), 1u);
}

TEST(IndexCache, RangeEscapingAppendRebuildsAndRepicksTier) {
  Relation<TropS> r(2);
  for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
  IndexCache<TropS> cache;
  const RelationIndex<TropS>& before = cache.Get(r, {0});
  EXPECT_EQ(before.repr(), IndexRepr::kDirectArray);
  // A soft append whose key escapes the direct tier's bucket range: the
  // in-place refresh must refuse (no partial mutation) and the rebuild
  // re-picks the tier — now hash, the column having gone sparse.
  r.Set({5000, 1}, 2.0);
  const RelationIndex<TropS>& after = cache.Get(r, {0});
  EXPECT_EQ(after.repr(), IndexRepr::kHashMap);
  EXPECT_EQ(after.Lookup({5000}).size(), 1u);
  EXPECT_EQ(after.Lookup({3}).size(), 1u);
  EXPECT_EQ(cache.incremental_appends(), 0u);
}

TEST(IndexCache, BuildAndHitCountersIdenticalAcrossKinds) {
  // The four pinned engine counters derive from builds()/hits(); they
  // must not depend on which tier serves the lookups.
  auto run = [](IndexKind kind) {
    Relation<TropS> r(2);
    IndexCache<TropS> cache;
    cache.set_config({kind});
    for (uint32_t i = 0; i < 10; ++i) r.Set({i, i}, 1.0);
    cache.Get(r, {0});
    cache.Get(r, {0});
    for (uint32_t i = 10; i < 14; ++i) r.Set({i, i}, 1.0);
    cache.Get(r, {0});
    r.Clear();
    for (uint32_t i = 0; i < 6; ++i) r.Set({i, i}, 2.0);
    cache.Get(r, {0});
    r.Set({2, 2}, TropS::Inf());
    cache.Get(r, {0});
    return std::pair<uint64_t, uint64_t>(cache.builds(), cache.hits());
  };
  const auto hash_counts = run(IndexKind::kHash);
  EXPECT_EQ(hash_counts, run(IndexKind::kDirect));
  EXPECT_EQ(hash_counts, run(IndexKind::kAuto));
}

TEST(IndexCache, PinnedEntriesSurviveEviction) {
  Relation<TropS> pinned_rel(1), transient_rel(1);
  pinned_rel.Set({1}, 1.0);
  transient_rel.Set({2}, 2.0);
  IndexCache<TropS> cache;
  cache.Get(pinned_rel, {0}, /*pin=*/true);
  cache.Get(transient_rel, {0});
  cache.MaybeEvict();
  cache.MaybeEvict();  // transient idle for a full epoch: dropped
  cache.Get(pinned_rel, {0});
  cache.Get(transient_rel, {0});
  EXPECT_EQ(cache.builds(), 3u);  // only the transient entry rebuilt
  EXPECT_EQ(cache.hits(), 1u);    // the pinned entry was still there
}

}  // namespace
}  // namespace datalogo
