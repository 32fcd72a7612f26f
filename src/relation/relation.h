// K-relations (Sec. 2.3): finite-support maps GA(R, D) → P, stored
// column-major. Only tuples with value ≠ ⊥ are in the support — exactly
// the paper's notion, and the reason semi-naive evaluation pays off
// (Sec. 1.1 discussion of ⊖).
//
// Storage layout (struct-of-arrays): one contiguous ConstId column per
// argument position plus a parallel value column, addressed by row id.
// Everything but the value column — key columns, live flags, the row-id
// table, uid and versions — is the non-template base RowStore, which is
// all that indexes read.
// Point lookups (Get/Set/Merge) go through a row-id table mapping each key
// to its row, probed with a lightweight key view — no Tuple is
// materialized on the probe path. The table takes one of two forms:
//  * direct — arity 1 or 2 over dense ids. With b0/b1 the bit widths of
//    the largest id stored in each column, key (k0) lives in slot k0 and
//    key (k0, k1) in slot (k0 << b1) | k1. A probe is one array read: no
//    hash and no key-column compare.
//  * hashed — open addressing with linear probing under a 3/4 load
//    factor. Arity 0 and arity >= 3 are always hashed.
// The form is a pure function of the content, re-chosen only where the
// table is laid out anew: the first insert, hashed load-factor growth, a
// key outside the direct range, Compact, and FoldStaged (once per TSV
// load). The table goes direct when
// 2^(b0+b1) <= kDirectSpanCap and the slot array is no bigger than
// max(4096, 4 × the hashed table for the same rows); otherwise it hashes.
// Only the key → row map differs between the forms: row ids, row order,
// columns, tombstones and the three versions are the same, so nothing
// outside this class can tell which form is live (direct_slots() says).
// The direct slot index is monotone in lexicographic key order and holds
// each key once, so SortedLiveRows walks the slot array instead of
// sorting. Erasing a tuple tombstones its row (the row id and its slot
// stay put, so a later Set of the same key revives the row in place);
// Compact() squeezes tombstones out between fixpoint iterations. Index
// construction and key projection become sequential column scans.
#ifndef DATALOGO_RELATION_RELATION_H_
#define DATALOGO_RELATION_RELATION_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/core/hash.h"
#include "src/relation/domain.h"
#include "src/relation/tuple.h"
#include "src/semiring/traits.h"

namespace datalogo {

namespace simd {
/// The instruction set of the column scans and join checks: there is one
/// scalar path. Kept only for the `simd_isa` field that
/// perfbench/runner.cc and bench/bench_util.h write into their journals.
inline const char* IsaName() { return "scalar"; }
}  // namespace simd

/// Process-unique id for one Relation object; never reused, so a cache
/// entry keyed by a dead relation's id can never match a live relation.
inline uint64_t NextRelationUid() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Sentinel row id: "no such row" (also the empty-slot marker of the
/// row-id table).
inline constexpr uint32_t kNoRow = 0xFFFFFFFFu;

/// Span cap for direct addressing. For the direct index tier: above
/// this, bucket storage (one vector header per id in [min, max]) stops
/// being worth skipping the hash, however dense the ids are.
/// For a relation's direct row-id table: the largest slot array
/// (2^(b0+b1) slots) it may use. A power of two.
inline constexpr uint64_t kDirectSpanCap = uint64_t{1} << 20;

/// A list of row ids into one relation's columnar storage — the currency
/// of RelationIndex lookups and the engine's join programs.
using RowIdList = std::vector<uint32_t>;

/// Non-owning view of one row's key columns in a columnar store. Usable
/// as a probe/upsert key against any Relation (of any value space)
/// without materializing a Tuple: it reads straight out of the source
/// relation's columns.
class RowView {
 public:
  RowView(const std::vector<std::vector<ConstId>>* cols, uint32_t row)
      : cols_(cols), row_(row) {}

  std::size_t size() const { return cols_->size(); }
  ConstId operator[](std::size_t pos) const { return (*cols_)[pos][row_]; }

 private:
  const std::vector<std::vector<ConstId>>* cols_;
  uint32_t row_;
};

/// The value-free half of a relation: the key columns, the live flags and
/// support size, the row-id table, the object's identity and its three
/// versions. Indexes (RelationIndex, IndexCache) read nothing else, so they
/// serve a Relation of any value space through this base. Relation<P> adds
/// the value column and every mutation.
class RowStore {
 public:
  int arity() const { return arity_; }
  std::size_t support_size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // ------------------------------------------------------ row accessors
  /// Total rows in the store, tombstoned ones included. Valid row ids are
  /// [0, num_rows()); only rows with RowLive() belong to the support.
  uint32_t num_rows() const {
    return static_cast<uint32_t>(live_flags_.size());
  }
  bool RowLive(uint32_t row) const { return live_flags_[row] != 0; }
  ConstId Cell(uint32_t row, int pos) const { return cols_[pos][row]; }
  /// A key view of `row` — valid until this relation's columns mutate.
  RowView View(uint32_t row) const { return RowView(&cols_, row); }
  /// One whole key column — the sequential-scan surface for index builds.
  const std::vector<ConstId>& column(int pos) const { return cols_[pos]; }
  /// Raw span of one key column, indexable by row id — what the batched
  /// join kernel's repeated-variable checks read per entry batch. Valid
  /// until the columns mutate.
  const ConstId* column_data(int pos) const { return cols_[pos].data(); }
  std::size_t tombstones() const { return live_flags_.size() - live_; }
  /// True when the row-id table is in its direct-addressed form (see the
  /// storage-layout comment at the top of this file).
  bool direct_slots() const { return direct_; }

  /// Calls fn(row_id) for every live (support) row, in row order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const uint32_t n = num_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (live_flags_[r]) fn(r);
    }
  }

  /// Live row ids in lexicographic tuple order (deterministic renderings).
  /// A direct table already holds the rows in that order, one slot per
  /// key, so it is walked instead of sorted.
  std::vector<uint32_t> SortedLiveRows() const {
    std::vector<uint32_t> rows;
    rows.reserve(live_);
    if (direct_) {
      for (uint32_t r : slots_) {
        if (r != kNoRow && live_flags_[r]) rows.push_back(r);
      }
      return rows;
    }
    ForEachRow([&](uint32_t r) { rows.push_back(r); });
    std::sort(rows.begin(), rows.end(), [this](uint32_t a, uint32_t b) {
      for (int p = 0; p < arity_; ++p) {
        if (cols_[p][a] != cols_[p][b]) return cols_[p][a] < cols_[p][b];
      }
      return false;
    });
    return rows;
  }

  bool Contains(const Tuple& t) const {
    if (static_cast<int>(t.size()) != arity_) return false;
    return LiveRow(t) != kNoRow;
  }

  /// The row holding `t` when it is in the support, else kNoRow — one
  /// probe of the row-id table (`t` must have this relation's arity).
  uint32_t LiveRow(const Tuple& t) const {
    const uint32_t r = FindRow(t);
    return r != kNoRow && live_flags_[r] != 0 ? r : kNoRow;
  }

  /// Identity of this object (stable for its lifetime, never reused).
  uint64_t uid() const { return uid_; }
  /// Bumped on every mutation; (uid, version) identifies one content state.
  uint64_t version() const { return version_; }
  /// Version of the last *hard* discontinuity — any mutation after which
  /// previously handed-out row ids are renumbered, reordered, or revived
  /// (tombstone, revival, Compact, copy/move assignment). Everything in
  /// between is appends of fresh live rows and value overwrites of live
  /// rows, so an index built at version v with hard_version() <= v can be
  /// refreshed by appending rows added since v instead of rebuilding.
  uint64_t hard_version() const { return hard_version_; }
  /// Version of the last Clear() or SwapRows(). A Clear between an
  /// index's version and now means "reset the entry lists, then re-append
  /// from row 0" — still no re-hash of retained structure, and no
  /// allocation churn.
  uint64_t clear_version() const { return clear_version_; }

  /// Registers every constant in the support with `out` — one sequential
  /// scan per column.
  void CollectConstants(std::vector<ConstId>& out) const {
    const uint32_t n = num_rows();
    for (int p = 0; p < arity_; ++p) {
      const std::vector<ConstId>& col = cols_[p];
      for (uint32_t r = 0; r < n; ++r) {
        if (live_flags_[r]) out.push_back(col[r]);
      }
    }
  }

 protected:
  explicit RowStore(int arity) : arity_(arity), cols_(arity) {}

  // Every object carries a unique id plus a mutation counter so index
  // caches can tell "same content as when I indexed it" apart from "same
  // address by coincidence". Copies and moves are new objects: they get a
  // fresh uid instead of inheriting cached-index validity. Relation<P>'s
  // implicit copies and moves add its value column to these (a moved-from
  // std::vector is left empty, matching ResetToEmpty).
  RowStore(const RowStore& other) : arity_(other.arity_) { *this = other; }
  RowStore(RowStore&& other) noexcept : arity_(other.arity_) {
    *this = std::move(other);
  }
  RowStore& operator=(const RowStore& other) {
    if (this != &other) {
      arity_ = other.arity_;
      cols_ = other.cols_;
      live_flags_ = other.live_flags_;
      live_ = other.live_;
      slots_ = other.slots_;
      mask_ = other.mask_;
      direct_ = other.direct_;
      shift_ = other.shift_;
      BumpHard();  // wholesale replacement: row ids mean something new
    }
    return *this;
  }
  RowStore& operator=(RowStore&& other) noexcept {
    if (this != &other) {
      arity_ = other.arity_;
      cols_ = std::move(other.cols_);
      live_flags_ = std::move(other.live_flags_);
      live_ = other.live_;
      slots_ = std::move(other.slots_);
      mask_ = other.mask_;
      direct_ = other.direct_;
      shift_ = other.shift_;
      other.ResetToEmpty();
      other.BumpHard();
      BumpHard();
    }
    return *this;
  }
  ~RowStore() = default;

  /// Hash of a key (Tuple or RowView) — the same value sequence hashes
  /// identically regardless of which form it arrives in. The splitmix64
  /// finalizer matters: the table is masked to a power of two and probed
  /// linearly, so weak low-bit dispersion (dense interned ids are highly
  /// structured) would cluster catastrophically.
  template <typename Key>
  static std::size_t KeyHash(const Key& key) {
    std::size_t h = 0xcbf29ce484222325ULL;
    const std::size_t n = key.size();
    for (std::size_t i = 0; i < n; ++i) {
      HashCombine(h, static_cast<std::size_t>(key[i]));
    }
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h;
  }

  template <typename Key>
  bool RowMatchesKey(uint32_t row, const Key& key) const {
    for (int p = 0; p < arity_; ++p) {
      if (cols_[p][row] != key[static_cast<std::size_t>(p)]) return false;
    }
    return true;
  }

  /// Hashed form's linear probe: the slot holding the key's row, or the
  /// empty slot where it would be inserted. Requires a non-empty table.
  /// Forced inline, as FindRow: see LiveValue.
  template <typename Key>
  [[gnu::always_inline]] std::size_t HashProbe(const Key& key) const {
    std::size_t s = KeyHash(key) & mask_;
    for (;;) {
      uint32_t r = slots_[s];
      if (r == kNoRow || RowMatchesKey(r, key)) return s;
      s = (s + 1) & mask_;
    }
  }

  /// "Outside the direct table's id range" (DirectSlot's miss value).
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Direct form's slot of `key`, or kNoSlot when an id is wider than its
  /// column's bit width. Forced inline, as FindRow: see LiveValue.
  template <typename Key>
  [[gnu::always_inline]] std::size_t DirectSlot(const Key& key) const {
    uint64_t s = key[0];
    if (arity_ == 2) {
      const uint64_t k1 = key[1];
      if (k1 >> shift_) return kNoSlot;
      s = (s << shift_) | k1;
    }
    return s < slots_.size() ? static_cast<std::size_t>(s) : kNoSlot;
  }

  /// Row id (live or tombstoned) of `key`, or kNoRow. At most one row per
  /// distinct key ever exists — erasure tombstones the row in place.
  template <typename Key>
  [[gnu::always_inline]] uint32_t FindRow(const Key& key) const {
    if (slots_.empty()) return kNoRow;
    if (direct_) {
      const std::size_t s = DirectSlot(key);
      return s == kNoSlot ? kNoRow : slots_[s];
    }
    return slots_[HashProbe(key)];
  }

  /// The slot of `key` in a table ready for a one-row append, so the slot
  /// stays valid through the insertion. Lays the table out anew first
  /// when it is empty, when a hashed table would pass its load factor, or
  /// when `key` falls outside the direct range.
  template <typename Key>
  std::size_t PrepareSlot(const Key& key) {
    if (direct_) {
      const std::size_t s = DirectSlot(key);
      if (s != kNoSlot) return s;
    } else if (!slots_.empty() &&
               (live_flags_.size() + 1) * 4 < slots_.size() * 3) {
      return HashProbe(key);
    }
    std::array<ConstId, 2> hi = DirectMaxima();
    for (int p = 0; p < arity_ && p < 2; ++p) {
      hi[p] = std::max(hi[p], key[static_cast<std::size_t>(p)]);
    }
    Relayout(live_flags_.size() + 1, hi, num_rows());
    return direct_ ? DirectSlot(key) : HashProbe(key);
  }

  static std::size_t SlotCountFor(std::size_t rows) {
    std::size_t n = 16;
    while (rows * 4 >= n * 3) n <<= 1;  // keep load factor under 3/4
    return n;
  }

  /// Largest ids stored in columns 0 and 1, tombstoned rows included —
  /// what the direct form must cover. Zeros unless the arity is 1 or 2.
  std::array<ConstId, 2> DirectMaxima() const {
    std::array<ConstId, 2> hi = {0, 0};
    if (arity_ == 1 || arity_ == 2) {
      for (int p = 0; p < arity_; ++p) {
        for (ConstId c : cols_[p]) hi[p] = std::max(hi[p], c);
      }
    }
    return hi;
  }

  /// Lays the row-id table out with room for `rows` rows whose largest
  /// ids in columns 0 and 1 are `hi`, choosing the form (see the
  /// storage-layout comment), and slots rows [0, n), tombstoned ones
  /// included, so revivals still find them.
  void Relayout(std::size_t rows, const std::array<ConstId, 2>& hi,
                uint32_t n) {
    constexpr int kDirectSpanBits = std::countr_zero(kDirectSpanCap);
    constexpr std::size_t kDirectFloorSlots = 4096;
    const std::size_t hashed = SlotCountFor(rows);
    if (arity_ == 1 || arity_ == 2) {
      const int b0 = std::bit_width(hi[0]);
      const int b1 = arity_ == 2 ? std::bit_width(hi[1]) : 0;
      if (b0 + b1 <= kDirectSpanBits &&
          (std::size_t{1} << (b0 + b1)) <=
              std::max(kDirectFloorSlots, 4 * hashed)) {
        direct_ = true;
        shift_ = b1;
        slots_.assign(std::size_t{1} << (b0 + b1), kNoRow);
        for (uint32_t r = 0; r < n; ++r) slots_[DirectSlot(View(r))] = r;
        return;
      }
    }
    direct_ = false;
    slots_.assign(hashed, kNoRow);
    mask_ = hashed - 1;
    for (uint32_t r = 0; r < n; ++r) {
      std::size_t s = KeyHash(View(r)) & mask_;
      while (slots_[s] != kNoRow) s = (s + 1) & mask_;
      slots_[s] = r;
    }
  }

  /// Bumps the version and marks it a Clear (see clear_version()): cached
  /// indexes reset and re-append from row 0.
  void RecordClear() {
    ++version_;
    clear_version_ = version_;
  }

  /// Bumps the version and marks it a hard discontinuity (see
  /// hard_version()): cached indexes must rebuild, not refresh.
  void BumpHard() {
    ++version_;
    hard_version_ = version_;
  }

  int arity_;
  std::vector<std::vector<ConstId>> cols_;  ///< one column per position
  std::vector<uint8_t> live_flags_;         ///< 0 = tombstoned row
  std::size_t live_ = 0;                    ///< support size
  RowIdList slots_;       ///< row-id table, either form (kNoRow = empty)
  std::size_t mask_ = 0;  ///< hashed form: slots_.size() - 1
  bool direct_ = false;   ///< slots_ is direct-addressed
  int shift_ = 0;         ///< direct form, arity 2: b1 (column 1's width)
  uint64_t uid_ = NextRelationUid();
  uint64_t version_ = 0;
  uint64_t hard_version_ = 0;   ///< version of the last hard discontinuity
  uint64_t clear_version_ = 0;  ///< version of the last Clear()

 private:
  /// Leaves a moved-from object empty but structurally valid (arity and
  /// uid retained, columns re-sized to arity).
  void ResetToEmpty() {
    cols_.assign(static_cast<std::size_t>(arity_), {});
    live_flags_.clear();
    live_ = 0;
    slots_.clear();
    mask_ = 0;
    direct_ = false;
    shift_ = 0;
  }
};

/// A P-relation of fixed arity; absent tuples implicitly map to ⊥.
template <Pops P>
class Relation : public RowStore {
 public:
  using Value = typename P::Value;

  explicit Relation(int arity = 0) : RowStore(arity) {}

  const Value& ValueAt(uint32_t row) const { return values_[row].v; }

  // ----------------------------------------------------- point operations
  /// The value of a ground atom (⊥ when outside the support).
  Value Get(const Tuple& t) const { return GetKey(t); }
  /// Same, keyed by another relation's row — no Tuple materialized.
  Value Get(const RowView& key) const { return GetKey(key); }

  /// The live value of `key`, or nullptr when `key` is outside the
  /// support: Get without a Tuple and without the arity check. `key` is
  /// any view of raw ids with operator[] and size() (a RowView, a
  /// std::span, the join kernel's drained-row head key) and must have
  /// this relation's arity. One probe of the row-id table, either form.
  /// Forced inline with FindRow and both forms' slot lookups: it is the
  /// join kernel's per-row head probe, and GCC otherwise leaves it out of
  /// line in Engine::DrainRows, which costs parity_paths' fuzzy fixpoint
  /// about a tenth of its time. Forcing KeyHash and RowMatchesKey too
  /// measured slower: it crowds other inlining out of the drain.
  template <typename Key>
  [[gnu::always_inline]] const Value* LiveValue(const Key& key) const {
    const uint32_t r = FindRow(key);
    return r != kNoRow && live_flags_[r] != 0 ? &values_[r].v : nullptr;
  }

  /// Sets the value, maintaining the support invariant (⊥ tombstones).
  void Set(const Tuple& t, Value v) { SetKey(t, std::move(v)); }
  void Set(const RowView& key, Value v) { SetKey(key, std::move(v)); }

  /// r(t) ← r(t) ⊕ v — a single-probe upsert (one table probe, not the
  /// Get-then-Set double lookup of the row-major store).
  void Merge(const Tuple& t, const Value& v) { MergeKey(t, v); }
  void Merge(const RowView& key, const Value& v) { MergeKey(key, v); }

  /// Removes a tuple from the support (r(t) ← ⊥); returns true iff the
  /// tuple was live. Equivalent to Set(t, ⊥): membership shrinks, which
  /// appending cannot express, so a successful Erase is a HARD mutation —
  /// cached indexes rebuild on next use, not refresh. Bulk deletions
  /// (Engine::Update's prune/apply phases) therefore batch their Erases
  /// between evaluations and follow them with one Compact, paying one
  /// rebuild per touched relation instead of one per tuple.
  bool Erase(const Tuple& t) { return EraseKey(t); }
  bool Erase(const RowView& key) { return EraseKey(key); }

  /// Exchanges rows with `other` (same arity): each relation ends up with
  /// the other's columns, values and row-id table, while uids and version
  /// counters stay with the objects. Both sides record a Clear() rather
  /// than a hard discontinuity, so an index cached for either relation is
  /// refreshed by reset-and-reappend over its new rows, not rebuilt. This
  /// is how a semi-naive round hands the δ it just wrote to the relation
  /// the next round reads, without copying a row.
  void SwapRows(Relation* other) {
    DLO_CHECK(arity_ == other->arity_);
    if (this == other) return;
    cols_.swap(other->cols_);
    values_.swap(other->values_);
    live_flags_.swap(other->live_flags_);
    std::swap(live_, other->live_);
    slots_.swap(other->slots_);
    std::swap(mask_, other->mask_);
    std::swap(direct_, other->direct_);
    std::swap(shift_, other->shift_);
    RecordClear();
    other->RecordClear();
  }

  // ------------------------------------------------------------ bulk merge
  // Merge of many rows with one table layout, as the TSV loaders use it:
  // ReserveRows, StageRow every (key, value) in input order, then one
  // FoldStaged. Staged rows are in the columns but not in the row-id
  // table, so nothing but StageRow and FoldStaged may run in between.

  /// Reserves column capacity for `extra` more rows.
  void ReserveRows(std::size_t extra) {
    for (auto& col : cols_) col.reserve(col.size() + extra);
    values_.reserve(values_.size() + extra);
    live_flags_.reserve(live_flags_.size() + extra);
  }

  /// Appends (key, v) as a staged row: columns only, no slot, not live.
  template <typename Key>
  void StageRow(const Key& key, Value v) {
    DLO_CHECK(static_cast<int>(key.size()) == arity_);
    for (int p = 0; p < arity_; ++p) {
      cols_[p].push_back(key[static_cast<std::size_t>(p)]);
    }
    values_.push_back(ValueCell{std::move(v)});
    live_flags_.push_back(0);
  }

  /// ⊕-merges the staged rows [first, num_rows()) in row order. Row ids,
  /// values, liveness and tombstones come out as if Merge(key, value) had
  /// run once per staged row: a key's first non-⊥ occurrence keeps its
  /// row, moved down over the rows folded away, and later duplicates ⊕
  /// into it. The table is laid out once, for every staged row and their
  /// largest ids, and the version bumps once: hard if a row was
  /// tombstoned or revived, else soft.
  void FoldStaged(uint32_t first) {
    const uint32_t n = num_rows();
    if (first == n) return;
    Relayout(n, DirectMaxima(), first);
    uint32_t w = first;  // the next row id a new key takes
    Effect changed = Effect::kNone;
    for (uint32_t r = first; r < n; ++r) {
      // Row r >= w is not written yet; every slotted row is below w.
      const RowView key = View(r);
      const std::size_t slot = direct_ ? DirectSlot(key) : HashProbe(key);
      const Effect e =
          MergeRow(slots_[slot], values_[r].v, [&](Value nv) {
            for (int p = 0; p < arity_; ++p) cols_[p][w] = cols_[p][r];
            values_[w].v = std::move(nv);
            live_flags_[w] = 1;
            slots_[slot] = w++;
          });
      changed = std::max(changed, e);
    }
    for (auto& col : cols_) col.resize(w);
    values_.resize(w);
    live_flags_.resize(w);
    Bump(changed);
  }

  /// Empties the relation but keeps column/slot capacity, so a Clear +
  /// refill cycle (persistent delta relations) does not reallocate.
  void Clear() {
    RecordClear();
    for (auto& col : cols_) col.clear();
    values_.clear();
    live_flags_.clear();
    live_ = 0;
    std::fill(slots_.begin(), slots_.end(), kNoRow);
  }

  /// Squeezes tombstoned rows out of the columns and rebuilds the row-id
  /// table. Row ids change, so the version is bumped (cached indexes over
  /// the old ids must rebuild); with no tombstones this is a no-op that
  /// leaves the version — and therefore cached indexes — untouched.
  void Compact() {
    if (live_ == num_rows()) return;
    for (int p = 0; p < arity_; ++p) {
      std::vector<ConstId>& col = cols_[p];
      uint32_t w = 0;
      for (uint32_t r = 0; r < num_rows(); ++r) {
        if (live_flags_[r]) col[w++] = col[r];
      }
      col.resize(w);
    }
    uint32_t w = 0;
    for (uint32_t r = 0; r < num_rows(); ++r) {
      if (!live_flags_[r]) continue;
      if (w != r) values_[w].v = std::move(values_[r].v);
      ++w;
    }
    values_.resize(w);
    live_flags_.assign(w, 1);
    live_ = w;
    BumpHard();  // surviving rows were renumbered
    Relayout(w, DirectMaxima(), w);
  }

  bool Equals(const Relation& other) const {
    if (arity_ != other.arity_ || live_ != other.live_) return false;
    const uint32_t n = num_rows();
    for (uint32_t r = 0; r < n; ++r) {
      if (!live_flags_[r]) continue;
      uint32_t o = other.FindRow(View(r));
      if (o == kNoRow || !other.live_flags_[o] ||
          !P::Eq(values_[r].v, other.values_[o].v)) {
        return false;
      }
    }
    return true;
  }

  /// Deterministic rendering (sorted by tuple) for goldens and debugging.
  std::string ToString(const Domain& dom) const {
    std::ostringstream os;
    for (uint32_t r : SortedLiveRows()) {
      os << "(";
      for (int p = 0; p < arity_; ++p) {
        if (p) os << ",";
        os << dom.ToString(cols_[p][r]);
      }
      os << ") -> " << P::ToString(values_[r].v) << "\n";
    }
    return os.str();
  }

 private:
  /// Appends a fresh live row for `key` into the empty slot `slot`.
  /// Reading key[p] before growing column p keeps self-referential views
  /// (key aliasing this relation's own columns) safe.
  template <typename Key>
  void AppendRow(std::size_t slot, const Key& key, Value v) {
    const uint32_t row = num_rows();
    for (int p = 0; p < arity_; ++p) {
      ConstId c = key[static_cast<std::size_t>(p)];
      cols_[p].push_back(c);
    }
    values_.push_back(ValueCell{std::move(v)});
    live_flags_.push_back(1);
    slots_[slot] = row;
  }

  template <typename Key>
  Value GetKey(const Key& key) const {
    if (static_cast<int>(key.size()) != arity_) return P::Bottom();
    const Value* v = LiveValue(key);
    return v != nullptr ? *v : P::Bottom();
  }

  template <typename Key>
  void SetKey(const Key& key, Value v) {
    DLO_CHECK(static_cast<int>(key.size()) == arity_);
    if (P::Eq(v, P::Bottom())) {
      // Erasing an absent tuple leaves the content unchanged; bumping the
      // version would invalidate cached indexes for nothing.
      uint32_t r = FindRow(key);
      if (r != kNoRow && live_flags_[r]) {
        live_flags_[r] = 0;
        --live_;
        BumpHard();  // membership shrank: appended-row refresh can't see it
      }
      return;
    }
    const std::size_t slot = PrepareSlot(key);
    uint32_t r = slots_[slot];
    if (r == kNoRow) {
      AppendRow(slot, key, std::move(v));
      ++live_;
      ++version_;
    } else if (!live_flags_[r]) {
      // Revive the tombstoned row in place. Hard: the row id re-enters
      // the support out of row order, which appending cannot express.
      values_[r].v = std::move(v);
      live_flags_[r] = 1;
      ++live_;
      BumpHard();
    } else {
      values_[r].v = std::move(v);  // value-only overwrite: soft
      ++version_;
    }
  }

  template <typename Key>
  bool EraseKey(const Key& key) {
    if (static_cast<int>(key.size()) != arity_) return false;
    uint32_t r = FindRow(key);
    if (r == kNoRow || !live_flags_[r]) return false;
    live_flags_[r] = 0;
    --live_;
    BumpHard();  // membership shrank: appended-row refresh can't see it
    return true;
  }

  template <typename Key>
  void MergeKey(const Key& key, const Value& v) {
    DLO_CHECK(static_cast<int>(key.size()) == arity_);
    const std::size_t slot = PrepareSlot(key);
    Bump(MergeRow(slots_[slot], v, [&](Value nv) {
      AppendRow(slot, key, std::move(nv));
    }));
  }

  /// How a mutation changed the content, in the terms of hard_version():
  /// not at all, softly (appends and value overwrites), or hard. Ordered,
  /// so the effect of several mutations is their max.
  enum class Effect : uint8_t { kNone, kSoft, kHard };

  void Bump(Effect e) {
    if (e == Effect::kHard) {
      BumpHard();
    } else if (e == Effect::kSoft) {
      ++version_;
    }
  }

  /// The ⊕-upsert rules MergeKey and FoldStaged share, for a key whose
  /// row — live or tombstoned — is `r`, or kNoRow when it has none. A
  /// live row takes r ⊕ v and is tombstoned when that is ⊥; a tombstoned
  /// row revives with ⊥ ⊕ v unless that is ⊥; a key with no row gets
  /// ⊥ ⊕ v, unless ⊥, through `append(value)`, which must add the row.
  /// Keeps the support size; versions are the caller's, per the result.
  template <typename Append>
  [[gnu::always_inline]] Effect MergeRow(uint32_t r, const Value& v,
                                         Append&& append) {
    if (r != kNoRow && live_flags_[r]) {
      Value nv = P::Plus(values_[r].v, v);
      if (P::Eq(nv, P::Bottom())) {
        live_flags_[r] = 0;
        --live_;
        return Effect::kHard;  // ⊕ annihilated the row: membership shrank
      }
      values_[r].v = std::move(nv);
      return Effect::kSoft;
    }
    Value nv = P::Plus(P::Bottom(), v);
    if (P::Eq(nv, P::Bottom())) return Effect::kNone;  // ⊥ ⊕ v = ⊥
    ++live_;
    if (r != kNoRow) {
      values_[r].v = std::move(nv);  // revival: hard (see SetKey)
      live_flags_[r] = 1;
      return Effect::kHard;
    }
    append(std::move(nv));
    return Effect::kSoft;
  }

  /// One value-column element. The wrapper defeats the std::vector<bool>
  /// bit-packing specialization: ValueAt must hand out stable
  /// `const Value&` references into the column (the join kernel keeps
  /// them across bind/check ops), which a packed proxy cannot provide.
  struct ValueCell {
    Value v;
  };

  std::vector<ValueCell> values_;  ///< value column, parallel to the keys
};

/// How one RelationIndex actually serves lookups. Tier choice is a pure
/// function of (key positions, live key-column min/max and support size),
/// so the same relation state always gets the same tier.
enum class IndexRepr : uint8_t {
  kHashMap,      ///< Tuple-keyed unordered_map — the general tier
  kDirectArray,  ///< single key column, dense ids: offset-indexed buckets
  kAllRows,      ///< empty key: one list of all live rows
};

/// An index over a relation keyed by a subset of argument positions;
/// built on demand by the engine (index nested-loop joins) and reused
/// across joining steps through IndexCache below. Entries are row ids
/// into the relation's columnar store, in ascending row order whatever
/// the tier — Lookup results are bit-identical across representations.
/// An index reads only the RowStore half of a relation (key columns, live
/// flags, row counts), never a value, so one class serves POPS and
/// Boolean relations alike.
///
/// Tiers: multi-column keys always hash. Single-column keys use the
/// direct tier when the live ids are dense (span <= 4*live + 256 and
/// span <= kDirectSpanCap) — Lookup is then one subtraction and a bounds
/// check, with no hashing and no key-Tuple walk. Empty keys (full scans)
/// keep the single live-row list directly.
class RelationIndex {
 public:
  using EntryList = RowIdList;

  /// Builds an index of `rel` on the given positions.
  explicit RelationIndex(const RowStore& rel, std::vector<int> positions)
      : rel_(&rel), positions_(std::move(positions)) {
    ChooseRepr();
    if (repr_ == IndexRepr::kDirectArray) {
      buckets_.assign(static_cast<std::size_t>(span_), EntryList{});
    }
    bool ok = AppendRange(0, rel.num_rows());
    DLO_CHECK(ok);  // a fresh build chose its range from the same data
  }

  /// All row ids whose projection matches `key`, in row order.
  const EntryList& Lookup(const Tuple& key) const {
    static const EntryList kEmpty;
    switch (repr_) {
      case IndexRepr::kAllRows:
        return all_;
      case IndexRepr::kDirectArray: {
        // Unsigned wrap makes one compare cover both `key < base` and
        // `key >= base + span`.
        const uint32_t off = static_cast<uint32_t>(key[0]) - base_;
        return off < buckets_.size() ? buckets_[off] : kEmpty;
      }
      case IndexRepr::kHashMap:
        break;
    }
    auto it = index_.find(key);
    return it == index_.end() ? kEmpty : it->second;
  }

  /// The relation the row ids point into. Only valid while the index is —
  /// i.e. while the relation's version is unchanged (IndexCache's guard).
  const RowStore& relation() const { return *rel_; }

  const std::vector<int>& positions() const { return positions_; }

  IndexRepr repr() const { return repr_; }
  /// True when Lookup hashes a key Tuple (the probe-counter split).
  bool is_hash() const { return repr_ == IndexRepr::kHashMap; }

  /// Rows this index has incorporated (== the relation's num_rows() as of
  /// the version it is valid for).
  uint32_t indexed_rows() const { return indexed_rows_; }
  /// Rows examined by this object's build/refresh column scans (including
  /// the dense-detection min/max pass) — the "did a cache hit really skip
  /// the scan" accounting surface.
  uint64_t rows_scanned() const { return rows_scanned_; }

  // ---------------------------------------------------- incremental refresh
  // IndexCache-only surface. Both calls require that every row in
  // [indexed_rows_, rel.num_rows()) is live and in its final position —
  // guaranteed by the caller's hard_version() check (appends of fresh
  // rows and value overwrites are the only soft mutations).

  /// Appends the rows added since the last build/refresh. Returns false —
  /// leaving the index unusable — iff a new key falls outside the direct
  /// tier's bucket range; the caller rebuilds (and re-picks the tier).
  bool AppendNewRows() { return AppendRange(indexed_rows_, rel_->num_rows()); }

  /// Refresh after a Clear + refill cycle: empties every entry list
  /// (keeping their allocations and, for the hash tier, the map nodes)
  /// and re-appends from row 0. Same false-means-rebuild contract.
  bool ResetAndReappend() {
    all_.clear();
    for (EntryList& b : buckets_) b.clear();
    for (auto& [key, list] : index_) list.clear();
    indexed_rows_ = 0;
    return AppendRange(0, rel_->num_rows());
  }

 private:
  /// Picks the representation (and, for the direct tier, base/span) from
  /// the relation's current content.
  void ChooseRepr() {
    if (positions_.size() != 1) {
      repr_ = positions_.empty() ? IndexRepr::kAllRows : IndexRepr::kHashMap;
      return;
    }
    const std::size_t live = rel_->support_size();
    if (live == 0) {  // trivially dense: zero buckets, every lookup misses
      repr_ = IndexRepr::kDirectArray;
      base_ = 0;
      span_ = 0;
      return;
    }
    const std::vector<ConstId>& col = rel_->column(positions_[0]);
    ConstId lo = UINT32_MAX, hi = 0;  // live > 0: both get set
    for (uint32_t r = 0; r < rel_->num_rows(); ++r) {
      if (!rel_->RowLive(r)) continue;
      lo = std::min(lo, col[r]);
      hi = std::max(hi, col[r]);
    }
    rows_scanned_ += rel_->num_rows();  // the min/max detection pass
    const uint64_t span = static_cast<uint64_t>(hi) - lo + 1;
    if (span <= 4 * static_cast<uint64_t>(live) + 256 &&
        span <= kDirectSpanCap) {
      repr_ = IndexRepr::kDirectArray;
      base_ = lo;
      span_ = span;
    } else {
      repr_ = IndexRepr::kHashMap;
    }
  }

  /// Scans rows [from, to) into the structure (skipping dead rows only
  /// when a full build may see them; refresh ranges are all-live).
  bool AppendRange(uint32_t from, uint32_t to) {
    const bool may_have_dead = from == 0 && rel_->tombstones() != 0;
    switch (repr_) {
      case IndexRepr::kAllRows:
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          all_.push_back(r);
        }
        break;
      case IndexRepr::kDirectArray: {
        const std::vector<ConstId>& col = rel_->column(positions_[0]);
        // Range check first: a failed append must not leave the buckets
        // half-updated (the caller keeps the object on failure paths
        // until it replaces it).
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          if (static_cast<uint32_t>(col[r]) - base_ >= span_) return false;
        }
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          buckets_[col[r] - base_].push_back(r);
        }
        break;
      }
      case IndexRepr::kHashMap: {
        Tuple key(positions_.size(), 0);
        for (uint32_t r = from; r < to; ++r) {
          if (may_have_dead && !rel_->RowLive(r)) continue;
          for (std::size_t i = 0; i < positions_.size(); ++i) {
            key[i] = rel_->Cell(r, positions_[i]);
          }
          index_[key].push_back(r);
        }
        break;
      }
    }
    rows_scanned_ += to - from;
    indexed_rows_ = to;
    return true;
  }

  const RowStore* rel_;
  std::vector<int> positions_;
  IndexRepr repr_ = IndexRepr::kHashMap;
  // General tier.
  std::unordered_map<Tuple, EntryList, TupleHash> index_;
  // Direct tier: buckets_[key - base_], span_ == buckets_.size().
  uint32_t base_ = 0;
  uint64_t span_ = 0;
  std::vector<EntryList> buckets_;
  // Empty-key tier.
  EntryList all_;
  uint32_t indexed_rows_ = 0;
  uint64_t rows_scanned_ = 0;
};

/// Memoizes RelationIndexes keyed by (relation identity, position set).
/// A cached index is reused only while the relation's version is unchanged
/// — i.e. the relation has not been mutated since the index was built — so
/// EDB indexes survive an entire fixpoint run and IDB indexes survive all
/// rule evaluations within one ICO application. An index holds row ids
/// into the relation's columnar storage; the version guard ensures they
/// are only ever decoded while they are valid (mutation, Compact and Clear
/// all bump the version), and entries for mutated or destroyed relations
/// become unreachable (uids are never reused). Uids come from one
/// process-wide counter, so one cache keeps relations of different value
/// spaces (the engine's POPS and Boolean atoms) apart by uid alone.
class IndexCache {
 public:
  /// Returns an index of `rel` on `positions`, building it if no current
  /// one is cached. The reference stays valid until `rel` is mutated, the
  /// cache is cleared, or MaybeEvict() runs — Get itself never evicts, so
  /// references obtained during one joining step cannot be invalidated by
  /// later lookups in that same step.
  ///
  /// `pin` marks the entry eviction-exempt: the engine pins EDB entries,
  /// which never mutate during a run but used to fall idle — and get
  /// evicted, then fully re-scanned — while semi-naive evaluation ran
  /// other reliance groups' local fixpoints.
  ///
  /// A version mismatch does not always mean a scan: when the relation
  /// reports no hard discontinuity since the entry's version, the cached
  /// index is *refreshed* — appended rows only, or reset-and-reappend
  /// after a Clear + refill cycle — instead of rebuilt. Refreshes still
  /// count into builds() (keeping the build/hit counters bit-identical
  /// to the rebuild-everything behaviour); the appended rows count into
  /// incremental_appends() so journals show the rebuild work saved.
  const RelationIndex& Get(const RowStore& rel,
                           const std::vector<int>& positions,
                           bool pin = false) {
    // Two-level lookup (uid, then a linear scan of the few position sets a
    // predicate is ever joined on) keeps cache hits allocation-free; the
    // positions vector is copied only when an index is first built.
    std::vector<Entry>& entries = cache_[rel.uid()];
    for (Entry& e : entries) {
      if (e.positions != positions) continue;
      e.pinned = e.pinned || pin;
      if (e.version == rel.version()) {
        ++hits_;
        e.last_used = sweep_;
        return *e.index;
      }
      ++builds_;
      if (!RefreshEntry(rel, &e)) {
        // Build before updating the entry: a throwing constructor must
        // not leave the stale index tagged with the fresh version.
        auto rebuilt = std::make_unique<RelationIndex>(rel, positions);
        scan_rows_ += rebuilt->rows_scanned();
        e.index = std::move(rebuilt);
      }
      e.version = rel.version();
      e.last_used = sweep_;
      return *e.index;
    }
    ++builds_;
    // Growing `entries` may relocate other Entry objects, but never the
    // heap RelationIndexes that outstanding Get() references point to.
    entries.push_back(
        Entry{positions, rel.version(),
              std::make_unique<RelationIndex>(rel, positions),
              sweep_, pin});
    scan_rows_ += entries.back().index->rows_scanned();
    return *entries.back().index;
  }

  /// Eviction — call only when no Get() references are live (e.g. between
  /// fixpoint iterations, which also advances the "recently used" epoch).
  /// Callers that index short-lived relations orphan their entries — each
  /// a fully built index the size of its relation — so everything idle for
  /// a full epoch is dropped; hot (persistent-delta) indexes are looked up
  /// every epoch and survive, and pinned (EDB) entries are exempt.
  void MaybeEvict() {
    ++sweep_;
    for (auto it = cache_.begin(); it != cache_.end();) {
      std::erase_if(it->second, [this](const Entry& e) {
        return !e.pinned && e.last_used + 1 < sweep_;
      });
      it = it->second.empty() ? cache_.erase(it) : std::next(it);
    }
  }

  void Clear() { cache_.clear(); }

  /// Number of indexes constructed or refreshed through this cache.
  uint64_t builds() const { return builds_; }
  /// Number of lookups served without rebuilding.
  uint64_t hits() const { return hits_; }
  /// Rows appended to cached indexes by incremental refreshes — each one
  /// a row the rebuild path would have re-scanned along with its whole
  /// relation.
  uint64_t incremental_appends() const { return incremental_appends_; }
  /// Rows examined by index build/refresh scans through this cache (cache
  /// hits contribute nothing — the "hit path never scans" assertion
  /// surface).
  uint64_t scan_rows() const { return scan_rows_; }

 private:
  struct Entry {
    std::vector<int> positions;
    uint64_t version;
    std::unique_ptr<RelationIndex> index;
    uint64_t last_used = 0;  ///< sweep epoch of the most recent lookup
    bool pinned = false;     ///< eviction-exempt (EDB entries)
  };

  /// Tries the incremental-refresh paths; returns true iff the cached
  /// index was brought current without a rebuild.
  bool RefreshEntry(const RowStore& rel, Entry* e) {
    if (rel.hard_version() > e->version) return false;
    const uint64_t scans_before = e->index->rows_scanned();
    const uint32_t rows_before = e->index->indexed_rows();
    bool ok;
    uint32_t appended;
    if (rel.clear_version() > e->version) {
      ok = e->index->ResetAndReappend();
      appended = ok ? e->index->indexed_rows() : 0;
    } else {
      ok = e->index->AppendNewRows();
      appended = ok ? e->index->indexed_rows() - rows_before : 0;
    }
    if (ok) {
      incremental_appends_ += appended;
      scan_rows_ += e->index->rows_scanned() - scans_before;
    }
    return ok;
  }

  std::unordered_map<uint64_t, std::vector<Entry>> cache_;
  uint64_t sweep_ = 0;
  uint64_t builds_ = 0;
  uint64_t hits_ = 0;
  uint64_t incremental_appends_ = 0;
  uint64_t scan_rows_ = 0;
};

}  // namespace datalogo

#endif  // DATALOGO_RELATION_RELATION_H_
