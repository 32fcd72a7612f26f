// SIMD column-scan and join-batch kernels (src/core/simd.h) vs the
// scalar reference: outputs must be bit-identical for every tail length
// — the differential surface is 0..2×lane-width plus a few, so every
// vector-body/scalar-tail split point is crossed — and for adversarial
// contents (all-zero, all-ones, extreme u32 values that break
// signed-compare shortcuts). The gather/compare-mask/compress trio is
// additionally tested composed exactly as the engine's batched join
// kernel chains them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "src/core/simd.h"

namespace datalogo {
namespace {

TEST(SimdScan, CollectLiveRowsMatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0xC011EC7);
  for (uint32_t n = 0; n <= 2 * simd::kLanes8 + 3; ++n) {
    for (double density : {0.0, 0.5, 1.0}) {
      std::bernoulli_distribution alive(density);
      std::vector<uint8_t> live(n);
      // Live flags are nominally 0/1, but the kernels must treat any
      // nonzero byte as live.
      for (auto& f : live) f = alive(rng) ? (rng() % 2 ? 1 : 2) : 0;
      std::vector<uint32_t> ref, got;
      simd::CollectLiveRowsScalar(live.data(), n, &ref);
      simd::CollectLiveRows(live.data(), n, &got);
      EXPECT_EQ(ref, got) << "n=" << n << " density=" << density;
    }
  }
}

TEST(SimdScan, FilterEqRowsMatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0xF117E4);
  for (uint32_t n = 0; n <= 2 * simd::kLanes32 + 3; ++n) {
    for (int variant = 0; variant < 4; ++variant) {
      std::vector<uint32_t> col(n);
      uint32_t key = 0;
      switch (variant) {
        case 0:  // random small ids, key present with repeats
          for (auto& c : col) c = rng() % 4;
          key = 2;
          break;
        case 1:  // key absent
          for (auto& c : col) c = rng() % 100;
          key = 1000;
          break;
        case 2:  // every element matches
          for (auto& c : col) c = 7;
          key = 7;
          break;
        case 3:  // extreme values: sign-bit patterns must not confuse
                 // the integer-compare paths
          for (auto& c : col) c = rng() % 2 ? 0u : 0xFFFFFFFFu;
          key = 0xFFFFFFFFu;
          break;
      }
      std::vector<uint32_t> ref, got;
      simd::FilterEqRowsScalar(col.data(), n, key, &ref);
      simd::FilterEqRows(col.data(), n, key, &got);
      EXPECT_EQ(ref, got) << "n=" << n << " variant=" << variant;
    }
  }
}

TEST(SimdScan, MinMaxU32MatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0x314159);
  for (uint32_t n = 1; n <= 4 * simd::kLanes32 + 3; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint32_t> col(n);
      for (auto& c : col) {
        // Variant 2 stresses values above INT32_MAX: an unsigned min/max
        // implemented with signed compares would order them wrong.
        c = variant == 0 ? rng() % 64
                         : variant == 1 ? static_cast<uint32_t>(rng())
                                        : 0x80000000u + rng() % 1024;
      }
      uint32_t ref_lo = 0, ref_hi = 0, lo = 0, hi = 0;
      simd::MinMaxU32Scalar(col.data(), n, &ref_lo, &ref_hi);
      simd::MinMaxU32(col.data(), n, &lo, &hi);
      EXPECT_EQ(ref_lo, lo) << "n=" << n << " variant=" << variant;
      EXPECT_EQ(ref_hi, hi) << "n=" << n << " variant=" << variant;
    }
  }
}

TEST(SimdScan, GatherU32MatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0x6A77E4);
  std::vector<uint32_t> col(256);
  for (auto& c : col) c = rng();
  for (uint32_t n = 0; n <= 2 * simd::kLanes32 + 3; ++n) {
    // Row ids may repeat and arrive in any order (entry lists are
    // ascending, but the kernel must not rely on it).
    std::vector<uint32_t> rows(n);
    for (auto& r : rows) r = rng() % col.size();
    std::vector<uint32_t> ref(n, 0), got(n, 0);
    simd::GatherU32Scalar(col.data(), rows.data(), n, ref.data());
    simd::GatherU32(col.data(), rows.data(), n, got.data());
    EXPECT_EQ(ref, got) << "n=" << n;
  }
}

TEST(SimdScan, MaskEqU32MatchesScalarOverAllTailLengths) {
  std::mt19937 rng(0x3A5CED);
  for (uint32_t n = 0; n <= 2 * simd::kLanes32 + 3; ++n) {
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<uint32_t> a(n), b(n);
      for (uint32_t i = 0; i < n; ++i) {
        switch (variant) {
          case 0:  // frequent matches
            a[i] = rng() % 3;
            b[i] = rng() % 3;
            break;
          case 1:  // everything matches
            a[i] = b[i] = rng();
            break;
          case 2:  // sign-bit extremes must not confuse integer compares
            a[i] = rng() % 2 ? 0u : 0xFFFFFFFFu;
            b[i] = rng() % 2 ? 0u : 0xFFFFFFFFu;
            break;
        }
      }
      const uint32_t ref = simd::MaskEqU32Scalar(a.data(), b.data(), n);
      EXPECT_EQ(ref, simd::MaskEqU32(a.data(), b.data(), n))
          << "n=" << n << " variant=" << variant;
      // Bits at or above n must be clear — CompressRowIds relies on it.
      if (n < 32) EXPECT_EQ(ref >> n, 0u);
    }
  }
}

TEST(SimdScan, CompressRowIdsMatchesMaskEnumeration) {
  // Every mask over one join batch: the compressed output must be the
  // selected rows in ascending lane order.
  std::vector<uint32_t> rows(simd::kJoinBatch);
  for (uint32_t i = 0; i < simd::kJoinBatch; ++i) rows[i] = 100 + 7 * i;
  for (uint32_t mask = 0; mask < (1u << simd::kJoinBatch); ++mask) {
    std::vector<uint32_t> out(simd::kJoinBatch, 0);
    const uint32_t count = simd::CompressRowIds(rows.data(), mask, out.data());
    std::vector<uint32_t> ref;
    for (uint32_t i = 0; i < simd::kJoinBatch; ++i) {
      if (mask & (1u << i)) ref.push_back(rows[i]);
    }
    ASSERT_EQ(count, ref.size()) << "mask=" << mask;
    EXPECT_TRUE(std::equal(ref.begin(), ref.end(), out.begin()))
        << "mask=" << mask;
  }
}

TEST(SimdScan, GatherCompareCompressPipelineMatchesScalarFilter) {
  // The exact composition the batched join kernel runs per chunk:
  // gather two columns over a row batch, mask-compare, compress — the
  // survivors must equal a row-at-a-time reference filter.
  std::mt19937 rng(0x90B157);
  std::vector<uint32_t> col_a(512), col_b(512);
  for (std::size_t r = 0; r < col_a.size(); ++r) {
    col_a[r] = rng() % 8;
    col_b[r] = rng() % 8;
  }
  for (uint32_t n = 0; n <= 2 * simd::kJoinBatch + 3; ++n) {
    std::vector<uint32_t> rows(n);
    for (auto& r : rows) r = rng() % col_a.size();
    std::vector<uint32_t> ref;
    for (uint32_t r : rows) {
      if (col_a[r] == col_b[r]) ref.push_back(r);
    }
    // Chunked like the engine: kJoinBatch rows per gather/compare step.
    std::vector<uint32_t> got;
    std::vector<uint32_t> ga(simd::kJoinBatch), gb(simd::kJoinBatch);
    std::vector<uint32_t> surv(simd::kJoinBatch);
    for (uint32_t i = 0; i < n; i += simd::kJoinBatch) {
      const uint32_t chunk = std::min(simd::kJoinBatch, n - i);
      simd::GatherU32(col_a.data(), rows.data() + i, chunk, ga.data());
      simd::GatherU32(col_b.data(), rows.data() + i, chunk, gb.data());
      const uint32_t mask = simd::MaskEqU32(ga.data(), gb.data(), chunk);
      const uint32_t count =
          simd::CompressRowIds(rows.data() + i, mask, surv.data());
      got.insert(got.end(), surv.begin(), surv.begin() + count);
    }
    EXPECT_EQ(ref, got) << "n=" << n;
  }
}

TEST(SimdScan, RowIdsAreAscending) {
  // Both downstream consumers (EntryLists, dense detection) rely on
  // kernel outputs preserving row order; spot-check a mixed pattern.
  std::vector<uint8_t> live = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0,
                               1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1};
  std::vector<uint32_t> rows;
  simd::CollectLiveRows(live.data(), static_cast<uint32_t>(live.size()),
                        &rows);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1], rows[i]);
  }
}

}  // namespace
}  // namespace datalogo
