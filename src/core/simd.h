// Portable SIMD column-scan kernels for the columnar relation store.
//
// Two families of primitives live here. The *column scans* cover every
// vectorizable pass the index subsystem performs: compacting live-flag
// bytes to row ids (index construction over tombstoned stores),
// equality-filtering a ConstId column against one key (small-span
// direct-index builds), and exact min/max of a ConstId column
// (dense-range detection for direct indexes). The *join-batch
// primitives* (gather / compare-mask / compress) are the building
// blocks of the engine's batched join kernel: decode a small batch of
// entry-list row ids, gather the checked column cells, compare them as
// one mask, and compress the survivors.
//
// The instruction set is chosen at compile time by preprocessor
// detection (AVX2 > SSE2 on x86, NEON on arm64, scalar elsewhere). Every
// vectorized primitive has a `*Scalar` twin — the definitional reference
// the unit tests compare it against. Both emit row ids in ascending order
// and never read past the given length (tails are scalar), so outputs are
// bit-identical to the reference and sanitizer-clean: the engine's
// determinism pins do not depend on the instruction set.
#ifndef DATALOGO_CORE_SIMD_H_
#define DATALOGO_CORE_SIMD_H_

#include <cstdint>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__SSE2__)
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#endif

namespace datalogo {

namespace simd {

#if defined(__AVX2__)
inline constexpr const char* kIsaName = "avx2";
inline constexpr uint32_t kLanes32 = 8;   ///< u32 lanes per vector op
inline constexpr uint32_t kLanes8 = 32;   ///< u8 lanes per vector op
#elif defined(__SSE2__)
inline constexpr const char* kIsaName = "sse2";
inline constexpr uint32_t kLanes32 = 4;
inline constexpr uint32_t kLanes8 = 16;
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
inline constexpr const char* kIsaName = "neon";
inline constexpr uint32_t kLanes32 = 4;
inline constexpr uint32_t kLanes8 = 16;
#else
inline constexpr const char* kIsaName = "scalar";
inline constexpr uint32_t kLanes32 = 1;
inline constexpr uint32_t kLanes8 = 1;
#endif

/// The instruction set the kSimd paths compile to in this binary.
inline const char* IsaName() { return kIsaName; }

// ------------------------------------------------------------------
// CollectLiveRows: append every r in [0, n) with live[r] != 0 to *out,
// ascending. The hot scan of index construction over stores that carry
// tombstones (and the whole build for key-less "all rows" indexes).

inline void CollectLiveRowsScalar(const uint8_t* live, uint32_t n,
                                  std::vector<uint32_t>* out) {
  for (uint32_t r = 0; r < n; ++r) {
    if (live[r]) out->push_back(r);
  }
}

inline void CollectLiveRows(const uint8_t* live, uint32_t n,
                            std::vector<uint32_t>* out) {
  uint32_t r = 0;
#if defined(__AVX2__)
  const __m256i zero = _mm256_setzero_si256();
  for (; r + 32 <= n; r += 32) {
    __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(live + r));
    uint32_t alive = ~static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    while (alive) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(alive)));
      alive &= alive - 1;
    }
  }
#elif defined(__SSE2__)
  const __m128i zero = _mm_setzero_si128();
  for (; r + 16 <= n; r += 16) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(live + r));
    uint32_t alive =
        ~static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero))) &
        0xFFFFu;
    while (alive) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(alive)));
      alive &= alive - 1;
    }
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  // NEON has no movemask; narrow each byte's comparison result to a
  // nibble (vshrn by 4), giving a 64-bit mask with 4 bits per lane.
  for (; r + 16 <= n; r += 16) {
    uint8x16_t v = vld1q_u8(live + r);
    uint8x16_t nonzero = vtstq_u8(v, v);
    uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u8(nonzero), 4);
    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    while (m) {
      uint32_t i = static_cast<uint32_t>(__builtin_ctzll(m)) >> 2;
      out->push_back(r + i);
      m &= ~(0xFull << (i * 4));
    }
  }
#endif
  for (; r < n; ++r) {
    if (live[r]) out->push_back(r);
  }
}

// ------------------------------------------------------------------
// FilterEqRows: append every r in [0, n) with col[r] == key to *out,
// ascending. Callers guarantee the whole range is live (tombstone-free
// stores) — this is the per-key pass of small-span direct-index builds,
// where scanning the column once per key beats a scalar scatter.

inline void FilterEqRowsScalar(const uint32_t* col, uint32_t n, uint32_t key,
                               std::vector<uint32_t>* out) {
  for (uint32_t r = 0; r < n; ++r) {
    if (col[r] == key) out->push_back(r);
  }
}

inline void FilterEqRows(const uint32_t* col, uint32_t n, uint32_t key,
                         std::vector<uint32_t>* out) {
  uint32_t r = 0;
#if defined(__AVX2__)
  const __m256i kv = _mm256_set1_epi32(static_cast<int>(key));
  for (; r + 8 <= n; r += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, kv))));
    while (m) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
  }
#elif defined(__SSE2__)
  const __m128i kv = _mm_set1_epi32(static_cast<int>(key));
  for (; r + 4 <= n; r += 4) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + r));
    uint32_t m = static_cast<uint32_t>(
        _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, kv))));
    while (m) {
      out->push_back(r + static_cast<uint32_t>(__builtin_ctz(m)));
      m &= m - 1;
    }
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  const uint32x4_t kv = vdupq_n_u32(key);
  for (; r + 4 <= n; r += 4) {
    uint32x4_t eq = vceqq_u32(vld1q_u32(col + r), kv);
    // Nibble-narrow as above: each u32 lane occupies 8 mask bits.
    uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u32(eq), 4);
    uint64_t m = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    while (m) {
      uint32_t i = static_cast<uint32_t>(__builtin_ctzll(m)) >> 3;
      out->push_back(r + i);
      m &= ~(0xFFull << (i * 8));
    }
  }
#endif
  for (; r < n; ++r) {
    if (col[r] == key) out->push_back(r);
  }
}

// ------------------------------------------------------------------
// MinMaxU32: exact unsigned min and max of col[0..n). Requires n > 0.
// Feeds the direct-index density rule, so the vector path must be exact
// — a SIMD approximation would make index-kind selection diverge.

inline void MinMaxU32Scalar(const uint32_t* col, uint32_t n, uint32_t* lo,
                            uint32_t* hi) {
  uint32_t mn = col[0], mx = col[0];
  for (uint32_t r = 1; r < n; ++r) {
    if (col[r] < mn) mn = col[r];
    if (col[r] > mx) mx = col[r];
  }
  *lo = mn;
  *hi = mx;
}

inline void MinMaxU32(const uint32_t* col, uint32_t n, uint32_t* lo,
                      uint32_t* hi) {
  if (n < 2 * kLanes32) {
    MinMaxU32Scalar(col, n, lo, hi);
    return;
  }
  uint32_t r = 0;
  uint32_t mn = col[0], mx = col[0];
#if defined(__AVX2__)
  __m256i vmn = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col));
  __m256i vmx = vmn;
  for (r = 8; r + 8 <= n; r += 8) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r));
    vmn = _mm256_min_epu32(vmn, v);
    vmx = _mm256_max_epu32(vmx, v);
  }
  alignas(32) uint32_t lanes_mn[8], lanes_mx[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes_mn), vmn);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes_mx), vmx);
  for (int i = 0; i < 8; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#elif defined(__SSE2__)
  // SSE2 has no unsigned 32-bit min/max; bias by 0x80000000 so signed
  // compare orders like unsigned, and blend through the compare mask.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  __m128i vmn = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col));
  __m128i vmx = vmn;
  for (r = 4; r + 4 <= n; r += 4) {
    __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + r));
    __m128i gt_mn = _mm_cmpgt_epi32(_mm_xor_si128(vmn, bias),
                                    _mm_xor_si128(v, bias));
    vmn = _mm_or_si128(_mm_and_si128(gt_mn, v),
                       _mm_andnot_si128(gt_mn, vmn));
    __m128i gt_v = _mm_cmpgt_epi32(_mm_xor_si128(v, bias),
                                   _mm_xor_si128(vmx, bias));
    vmx = _mm_or_si128(_mm_and_si128(gt_v, v),
                       _mm_andnot_si128(gt_v, vmx));
  }
  alignas(16) uint32_t lanes_mn[4], lanes_mx[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes_mn), vmn);
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes_mx), vmx);
  for (int i = 0; i < 4; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  uint32x4_t vmn = vld1q_u32(col);
  uint32x4_t vmx = vmn;
  for (r = 4; r + 4 <= n; r += 4) {
    uint32x4_t v = vld1q_u32(col + r);
    vmn = vminq_u32(vmn, v);
    vmx = vmaxq_u32(vmx, v);
  }
  uint32_t lanes_mn[4], lanes_mx[4];
  vst1q_u32(lanes_mn, vmn);
  vst1q_u32(lanes_mx, vmx);
  for (int i = 0; i < 4; ++i) {
    if (lanes_mn[i] < mn) mn = lanes_mn[i];
    if (lanes_mx[i] > mx) mx = lanes_mx[i];
  }
#endif
  for (; r < n; ++r) {
    if (col[r] < mn) mn = col[r];
    if (col[r] > mx) mx = col[r];
  }
  *lo = mn;
  *hi = mx;
}

// ------------------------------------------------------------------
// Join-batch primitives. The engine's batched join kernel decodes
// kJoinBatch row ids per step from an index entry list, gathers the
// column cells its check ops compare, folds the comparisons into one
// survivor bitmask, and compresses the surviving row ids into a small
// batch buffer. All three keep the column-scan contract: a `*Scalar`
// reference twin, scalar tails, never read past the given length,
// outputs bit-identical to the reference.

/// Row ids decoded per batched join step. Two SSE2/NEON vectors or one
/// AVX2 vector per compare; masks stay comfortably inside a uint32_t.
inline constexpr uint32_t kJoinBatch = 8;

// GatherU32: out[i] = col[rows[i]] for i in [0, n). The batch decode of
// one column over a row-id batch.

inline void GatherU32Scalar(const uint32_t* col, const uint32_t* rows,
                            uint32_t n, uint32_t* out) {
  for (uint32_t i = 0; i < n; ++i) out[i] = col[rows[i]];
}

inline void GatherU32(const uint32_t* col, const uint32_t* rows, uint32_t n,
                      uint32_t* out) {
  uint32_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= n; i += 8) {
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    __m256i v =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(col), idx, 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
  }
#else
  // SSE2/NEON have no hardware gather: issue four independent scalar
  // loads per step so the load ports pipeline them.
  for (; i + 4 <= n; i += 4) {
    out[i + 0] = col[rows[i + 0]];
    out[i + 1] = col[rows[i + 1]];
    out[i + 2] = col[rows[i + 2]];
    out[i + 3] = col[rows[i + 3]];
  }
#endif
  for (; i < n; ++i) out[i] = col[rows[i]];
}

// MaskEqU32: bit i of the result is set iff a[i] == b[i], for i in
// [0, n); higher bits are clear. Requires n <= 32. Serves the engine's
// repeated-variable checks: two cells of the same row must agree.

inline uint32_t MaskEqU32Scalar(const uint32_t* a, const uint32_t* b,
                                uint32_t n) {
  uint32_t m = 0;
  for (uint32_t i = 0; i < n; ++i) {
    m |= static_cast<uint32_t>(a[i] == b[i]) << i;
  }
  return m;
}

inline uint32_t MaskEqU32(const uint32_t* a, const uint32_t* b, uint32_t n) {
  uint32_t m = 0;
  uint32_t i = 0;
#if defined(__AVX2__)
  for (; i + 8 <= n; i += 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    m |= static_cast<uint32_t>(_mm256_movemask_ps(
             _mm256_castsi256_ps(_mm256_cmpeq_epi32(va, vb))))
         << i;
  }
#elif defined(__SSE2__)
  for (; i + 4 <= n; i += 4) {
    __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    m |= static_cast<uint32_t>(
             _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(va, vb))))
         << i;
  }
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
  for (; i + 4 <= n; i += 4) {
    uint32x4_t eq = vceqq_u32(vld1q_u32(a + i), vld1q_u32(b + i));
    // Nibble-narrow as in FilterEqRows: each u32 lane lands on 8 mask
    // bits; pick bit 0 of each byte.
    uint8x8_t nib = vshrn_n_u16(vreinterpretq_u16_u32(eq), 4);
    uint64_t nm = vget_lane_u64(vreinterpret_u64_u8(nib), 0);
    for (uint32_t l = 0; l < 4; ++l) {
      m |= static_cast<uint32_t>((nm >> (8 * l)) & 1u) << (i + l);
    }
  }
#endif
  for (; i < n; ++i) {
    m |= static_cast<uint32_t>(a[i] == b[i]) << i;
  }
  return m;
}

/// Compresses the row ids selected by `mask` into `out`, preserving
/// ascending lane order; returns how many were written. Callers
/// guarantee mask bits at or above the batch length are clear (the
/// MaskEqU32 kernel does). No vector twin: a bit-scan loop is already
/// branch-light, and survivor batches are at most kJoinBatch wide.
inline uint32_t CompressRowIds(const uint32_t* rows, uint32_t mask,
                               uint32_t* out) {
  uint32_t count = 0;
  while (mask) {
    out[count++] = rows[__builtin_ctz(mask)];
    mask &= mask - 1;
  }
  return count;
}

}  // namespace simd
}  // namespace datalogo

#endif  // DATALOGO_CORE_SIMD_H_
