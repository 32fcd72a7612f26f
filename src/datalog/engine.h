// The support-based relational engine: naive evaluation (Algorithm 1) and
// semi-naive evaluation with the differential rule (Algorithm 3, Theorems
// 6.4/6.5) on every carrier, δ formed at emission by ⊖ on complete
// distributive dioids and by dropping ⊕-absorbed mass elsewhere. One round
// body (EvalRound) and one seed-then-rounds loop (Cascade) serve SemiNaive
// and Engine::Update alike. Sound for naturally ordered semirings, where
// ⊥ = 0 is both the additive identity and absorbing, so tuples outside the
// stored support can never influence a result. For general POPS use the
// grounded engine (grounder.h).
#ifndef DATALOGO_DATALOG_ENGINE_H_
#define DATALOGO_DATALOG_ENGINE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/check.h"
#include "src/core/status.h"
#include "src/datalog/ast.h"
#include "src/datalog/instance.h"
#include "src/datalog/join_plan.h"
#include "src/datalog/reliance.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"
#include "src/semiring/deletion.h"
#include "src/semiring/traits.h"

namespace datalogo {

/// Outcome of an evaluation run.
template <Pops P>
struct EvalResult {
  IdbInstance<P> idb;
  /// Naive: ICO applications until J stops changing — the stability
  /// index. Semi-naive: group-local rounds (each reliance group's seed
  /// plus its differential rounds) summed over the groups.
  int steps = 0;
  bool converged = false;
  /// Join-work counter: generator entries visited (for the Sec. 6 benches).
  uint64_t work = 0;
};

/// How Engine::Update serviced one batch (reported for tests/benches).
enum class UpdateStrategy {
  kNoop,           ///< empty batch: nothing ran
  kInsertOnly,     ///< one warm insert cascade, no deletes
  kExactDeletion,  ///< subtract cascade (count-carrying carriers); also
                   ///< covers the trailing insert cascade of a mixed batch
  kDred,           ///< over-delete / re-derive (dioid carriers)
  kRecompute,      ///< full fixpoint from the mutated EDB
};

/// Outcome of one Engine::Update call.
struct UpdateResult {
  /// Cascade rounds run, seed evaluations included (for kRecompute: the
  /// fallback run's steps).
  int rounds = 0;
  bool converged = false;
  /// Generator entries visited servicing the batch.
  uint64_t work = 0;
  /// DRed only: pruned tuples the re-derivation brought back — each had a
  /// surviving derivation that avoided every deleted fact.
  uint64_t deleted_rederived = 0;
  UpdateStrategy strategy = UpdateStrategy::kNoop;
};

/// Relational evaluation of a datalog° program over a naturally ordered
/// semiring. Compiles each sum-product into a flat join program once —
/// index-key sources, per-entry bind/check slots, head slots — then
/// applies the ICO by iterative index nested-loop joins over relation
/// supports, reusing preallocated per-disjunct buffers so the inner loop
/// does not allocate.
///
/// Evaluation is sequential: semi-naive rounds are a chain of dependent
/// ICO applications, and fanning one application out to threads did not
/// pay off when measured (README.md, "Sequential evaluation"). Thread
/// safety: the index cache, scratch buffers and counters are mutable
/// state behind const entry points, so one Engine object must not be
/// shared across threads without external synchronization — use one
/// Engine per thread; compilation is cheap.
template <NaturallyOrderedSemiring P>
class Engine {
 public:
  /// Entry-list row ids the batched join kernel decodes per step
  /// (ExecuteShard); a batch's survivor mask fits in a uint32_t.
  static constexpr uint32_t kJoinBatch = 8;

  Engine(const Program& prog, const EdbInstance<P>& edb)
      : prog_(&prog), edb_(&edb) {
    reliance_ = BuildRelianceGroups(prog);
    Compile();
  }

  /// Indexes built into the cache so far (EDB indexes live for the whole
  /// run; IDB indexes are refreshed or rebuilt when their relation mutates).
  uint64_t index_builds() const {
    return pops_cache_.builds() + bool_cache_.builds();
  }
  /// Index lookups served from cache without rebuilding.
  uint64_t index_hits() const {
    return pops_cache_.hits() + bool_cache_.hits();
  }
  /// Cache traffic attributable to IDB relations (deltas, T(t), T(t-1));
  /// EDB indexes are built once per run, so these counters isolate how
  /// well the per-iteration delta indexes amortize.
  uint64_t idb_index_builds() const { return idb_index_builds_; }
  uint64_t idb_index_hits() const { return idb_index_hits_; }

  /// Join-kernel lookups served by hash-map indexes (key-Tuple hash +
  /// probe each) vs direct offset-addressed indexes (one bounds-checked
  /// array access each). The tier is picked from each relation's content
  /// (RelationIndex), so the split moves with the id layout while `work`,
  /// the fixpoint and the four build/hit counters do not.
  uint64_t hash_probes() const { return hash_probes_; }
  uint64_t direct_probes() const { return direct_probes_; }
  /// Entry-list rows decoded through the batched join kernel — the only
  /// join kernel, so this always equals the summed `work` of the runs.
  uint64_t join_batched_rows() const { return join_batched_rows_; }
  /// Always 0: the vectorized ⊗/⊕ value plane this counted was removed
  /// (it did not win when measured), and every carrier now computes
  /// values per row with P::Times / Relation::Merge. Kept only because
  /// the benchmark runner still reads it.
  uint64_t values_batched() const { return 0; }
  /// Rows appended to cached indexes by incremental refreshes instead of
  /// full rebuilds (relation.h IndexCache) — nonzero on every delta-driven
  /// run; each appended row replaces a whole-relation re-scan.
  uint64_t idx_incremental_appends() const {
    return pops_cache_.incremental_appends() +
           bool_cache_.incremental_appends();
  }
  /// Rows scanned building/refreshing EDB indexes. EDB relations never
  /// mutate during a run, so after the first build per (relation, key)
  /// this must not move — the regression surface for cache-hit paths
  /// that silently re-scan full columns (asserted in
  /// engine_scheduler_test).
  uint64_t edb_index_scan_rows() const { return edb_index_scan_rows_; }

  /// The condensed rule-reliance structure SemiNaive schedules by: one
  /// local fixpoint per SCC group, producers first. Naive ignores it.
  const RelianceGroups& reliance() const { return reliance_; }
  /// Local fixpoint rounds SemiNaive executed so far: seed applications
  /// plus differential rounds, summed over groups (the `steps` it reports).
  uint64_t group_iterations() const { return group_iterations_; }
  /// Triggered-set savings: rule evaluations a differential round
  /// (EvalRound — SemiNaive's and the Update cascades') skipped because
  /// none of the rule's body predicates held a live delta.
  uint64_t rules_skipped() const { return rules_skipped_; }

  /// Algorithm 1: J ← F(J) from ⊥ until fixpoint (or budget). The
  /// reference every other evaluation is checked against.
  EvalResult<P> Naive(int max_steps) const {
    IdbInstance<P> j(*prog_);
    // `next` persists across iterations: content moves into `j` through
    // the stable Relation objects (TakeContentsFrom), so the index cache
    // stays keyed to live uids instead of orphaning entries every round.
    IdbInstance<P> next(*prog_);
    uint64_t work = 0;
    for (int t = 0; t < max_steps; ++t) {
      SweepCaches();
      ApplyIco(j, &next, &work);
      if (next.Equals(j)) {
        return {std::move(j), t, true, work};
      }
      j.TakeContentsFrom(&next);
      j.CompactAll();  // tombstone hygiene between fixpoint iterations
    }
    return {std::move(j), max_steps, false, work};
  }

  /// Algorithm 3 WITHOUT the differential rule — the ablation the paper
  /// discusses in Sec. 6.3: δ(t) = F(J(t)) ⊖ J(t) computed by a full ICO
  /// application. Correct (Theorem 6.4) but does as much join work as
  /// naive; exists to quantify what Eq. (64)/(65) buy.
  EvalResult<P> SemiNaiveNonDifferential(int max_steps) const
    requires CompleteDistributiveDioid<P>
  {
    IdbInstance<P> j(*prog_);
    IdbInstance<P> f(*prog_);  // persistent: Clear + refill per iteration
    uint64_t work = 0;
    for (int t = 0; t < max_steps; ++t) {
      SweepCaches();
      f.ClearAll();
      ApplyIco(j, &f, &work);
      bool any_delta = false;
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& f_rel = f.idb(pred);
        Relation<P>& j_rel = j.idb(pred);
        const uint32_t rows = f_rel.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!f_rel.RowLive(r)) continue;
          typename P::Value d =
              P::Minus(f_rel.ValueAt(r), j_rel.Get(f_rel.View(r)));
          if (!P::Eq(d, P::Zero())) {
            j_rel.Merge(f_rel.View(r), d);
            any_delta = true;
          }
        }
      }
      if (!any_delta) {
        return {std::move(j), t, true, work};
      }
      j.CompactAll();  // tombstone hygiene between fixpoint iterations
    }
    return {std::move(j), max_steps, false, work};
  }

  /// Algorithm 3 with the differential rule (Eq. 64/65), on every carrier;
  /// returns the same fixpoint as Naive (Theorem 6.4). Rules are scheduled
  /// by reliance (reliance.h): per reliance group, in topological
  /// (producers-first) order, a seed application of the group's rules
  /// over the accumulated T, emitted as δ relative to T, then the one
  /// cascade loop (Cascade): T ⊕= δ and local differential rounds
  /// (EvalRound — Eq. 64 restricted to the occurrences of the group's own
  /// heads) until δ drains. Only TRIGGERED rules run: a rule re-evaluates
  /// iff some group-head predicate it reads holds a live delta, and the
  /// others count into rules_skipped(). A non-recursive group's seed
  /// triggers nothing, so it never runs a round.
  ///
  /// δ is formed at emission (EmitRow), so no whole F_g(T) is ever
  /// materialized and nothing is diffed afterwards. On a complete
  /// distributive dioid each contribution c leaves the join as c ⊖ T(u),
  /// exact because (x ⊕ y) ⊖ a = (x ⊖ a) ⊕ (y ⊖ a) (Eq. 58) and T is not
  /// written while a round runs. On other carriers (ℕ, provenance, R+) c
  /// is the fresh derivation mass itself — the differential terms never
  /// double-count, by multilinearity — and is dropped only where T(u)
  /// ⊕-absorbs it.
  ///
  /// Soundness: lower-group predicates are constants of F_g by the
  /// condensation order, so the differential expansion over group
  /// occurrences is exactly Eq. (64) for F_g; the warm-start invariant
  /// F_g(T_prev) ≼ T holds after the seed by x ⊕ (y ⊖ x) ⊒ y and is then
  /// maintained as in the global algorithm (Theorem 6.4). Without ⊖, with
  /// C what T held before the group: the seed makes T = C ⊕ F_g(C), and
  /// each round adds F_g(T(t)) − F_g(T(t-1)) exactly (multilinearity), so
  /// T(t+1) = C ⊕ F_g(T(t)) — the Kleene iterates of the group's system,
  /// from C, which reach its least fixpoint. When the
  /// program is one recursive rule (every golden recursion) the schedule
  /// is exactly the global semi-naive loop: one seed δ(0) = F(0), then one
  /// differential round per step, with the same emission and merge orders.
  ///
  /// `steps` sums the group-local rounds (each group's seed plus its
  /// differential rounds); max_steps is a TOTAL budget across groups.
  EvalResult<P> SemiNaive(int max_steps) const {
    uint64_t work = 0;
    int steps = 0;
    bool converged = true;
    IdbInstance<P> t(*prog_);  // the accumulated T across groups
    for (int g = 0; g < reliance_.num_groups() && converged; ++g) {
      if (steps >= max_steps) {
        converged = false;
        break;
      }
      // Seed: δ = F_g(T) relative to T over the group's heads. For the
      // first group T = 0, making this exactly the global t = 0 step.
      const Schedule& s = group_schedules_[g];
      IdbInstance<P> delta(*prog_);
      for (int r : s.rules) ApplyRule(compiled_[r], t, &delta, &t, &work);
      ++steps;
      converged = Cascade(s, &t, &delta, max_steps, &steps, &work);
    }
    group_iterations_ += static_cast<uint64_t>(steps);
    return {std::move(t), steps, converged, work};
  }

  /// Incremental maintenance — the warm-continuation entry point. Given
  /// `idb` holding the converged fixpoint of the engine's CURRENT EDB
  /// (Naive/SemiNaive output, or a previous converged Update), applies one
  /// batch of EDB mutations in place and brings `idb` to the fixpoint of
  /// the mutated EDB without re-running the whole fixpoint.
  ///
  ///  * Inserts run exactly one semi-naive delta cascade seeded from the
  ///    new facts: the seed evaluates the multilinear cross terms of every
  ///    rule body over the added mass (Δ at one changed-EDB occurrence,
  ///    the post-mutation EDB before it, pre-mutation snapshots after it —
  ///    the EDB transposition of Eq. (64)); the rounds are SemiNaive's own
  ///    cascade loop (Cascade) over the whole program, δ formed at
  ///    emission by ⊖ or by absorption (EmitRow). Valid in ANY carrier:
  ///    E_new = E_old ⊕ Δ holds by definition of the ⊕-merge, and
  ///    multilinearity makes the cross terms exactly the fresh one-step
  ///    mass, no ⊖ required.
  ///  * Deletes go through support counting where the carrier supports it
  ///    (SupportsExactDeletion — ℕ, ℕ[X], products of such: the removed
  ///    derivation mass is subtracted back out row by row, so
  ///    over-deletion is impossible by construction), and through DRed
  ///    (over-delete the affected cone, then re-derive) on complete
  ///    distributive dioids. Selective-⊕ dioids (min/max/or) prune only
  ///    tuples whose removed mass ties the stored optimum — what keeps the
  ///    affected cone small. Carriers with neither capability recompute.
  ///  * Boolean-EDB changes always recompute: Boolean facts appear as
  ///    (possibly negated) residual conditions, outside the ⊕-linear
  ///    differential algebra.
  ///
  /// `edb` must be the engine's own instance — mutating it in place keeps
  /// relation uids stable, so cached EDB indexes refresh incrementally
  /// (appended rows) instead of rebuilding, and `idb`'s persistent
  /// Relation objects keep their cached delta indexes attached across
  /// Update calls. Within one batch, deletes apply before adds (a fact
  /// deleted and re-added ends up with exactly the added value). The
  /// converged result is bit-identical to a full recompute from the
  /// mutated EDB; on a blown budget, converged=false and `idb` is left
  /// mid-cascade like the fixpoint entry points' partial results.
  UpdateResult Update(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                      IdbInstance<P>* idb, int max_steps) const {
    DLO_CHECK_MSG(edb == edb_, "Update must mutate the engine's own EDB");
    UpdateResult res;
    res.converged = true;
    if (batch.empty()) return res;

    bool recompute = !batch.bool_adds.empty() || !batch.bool_deletes.empty();
    bool deletes_applied = false;

    if (!recompute && !batch.pops_deletes.empty()) {
      if constexpr (SupportsExactDeletion<P>) {
        res.strategy = UpdateStrategy::kExactDeletion;
        const CascadeOutcome oc =
            ExactDeleteCascade(batch, edb, idb, max_steps, &res);
        if (oc == CascadeOutcome::kBudget) {
          res.converged = false;
          return res;
        }
        deletes_applied = true;
        if (oc == CascadeOutcome::kInexact) recompute = true;
      } else if constexpr (CompleteDistributiveDioid<P>) {
        // DRed folds the batch's adds into its re-derivation seed, so it
        // services the whole batch in one warm continuation.
        res.strategy = UpdateStrategy::kDred;
        DredUpdate(batch, edb, idb, max_steps, &res);
        return res;
      } else {
        recompute = true;  // no exact counts, no ⊖: nothing cheaper exists
      }
    }
    if (recompute) {
      res.strategy = UpdateStrategy::kRecompute;
      for (const auto& d : batch.bool_deletes) {
        edb->boolean(d.pred).Erase(d.tuple);
      }
      for (const auto& a : batch.bool_adds) {
        edb->boolean(a.pred).Set(a.tuple, true);
      }
      if (!deletes_applied) {
        for (const auto& d : batch.pops_deletes) {
          edb->pops(d.pred).Erase(d.tuple);
        }
      }
      for (const auto& a : batch.pops_adds) {
        edb->pops(a.pred).Merge(a.tuple, a.value);
      }
      Recompute(idb, max_steps, &res);
      return res;
    }
    if (!batch.pops_adds.empty()) {
      if (res.strategy == UpdateStrategy::kNoop) {
        res.strategy = UpdateStrategy::kInsertOnly;
      }
      InsertCascade(batch, edb, idb, max_steps, &res);
    }
    return res;
  }

 private:
  static constexpr ConstId kUnbound = static_cast<ConstId>(-1);

  /// Where a key or head slot gets its constant from: a rule-variable slot
  /// (var ≥ 0, statically guaranteed bound by then) or a literal constant.
  struct ValueSource {
    int var = -1;
    ConstId constant = 0;
  };

  /// Binds a fresh rule variable from one non-key position of a matched
  /// index entry.
  struct BindOp {
    int pos = 0;  ///< argument position in the matched tuple
    int var = 0;  ///< rule-variable slot to bind
  };

  /// One join generator — a POPS atom or a positive Boolean condition atom
  /// — compiled to a flat program step: which positions form the index
  /// key, where each key constant comes from, and what each remaining
  /// position binds or checks. No Term inspection happens at run time.
  struct Generator {
    bool is_bool = false;
    bool is_idb = false;       ///< resolve through the per-call resolver
    int pred = -1;
    int atom_index = -1;       ///< into sp.atoms or sp.conditions
    std::vector<int> key_positions;   ///< arg positions bound beforehand
    std::vector<ValueSource> key_sources;  ///< parallel to key_positions
    /// Repeated-variable pattern (e.g. E(X,X)). A repeat can only match a
    /// variable bound earlier in the SAME atom (anything bound before the
    /// atom becomes a key position), so it lowers to a same-row
    /// column-pair equality: the entry survives iff its `pos` cell equals
    /// its `first_pos` cell. Checks run first over the whole batch
    /// (one survivor mask, then a compress), then the binds run per
    /// survivor — rows failing a check never touch the bind columns.
    struct CheckPair {
      int pos = 0;        ///< position carrying the repeated variable
      int first_pos = 0;  ///< position whose BindOp introduced it
    };
    std::vector<CheckPair> check_pairs;
    std::vector<BindOp> bind_ops;  ///< first occurrences, in arg order
    /// Every position is a key (planned programs only, never level 0):
    /// the level probes the relation's own row-id table for its 0 or 1
    /// matching row instead of going through an index.
    bool point = false;
  };

  /// One head position filled by the innermost generator: head[head_pos]
  /// is that generator's column `col` at the drained row.
  struct HeadColumn {
    int head_pos = 0;
    int col = 0;
  };

  struct CompiledDisjunct {
    int disjunct_index = 0;
    const SumProduct* sp = nullptr;
    std::vector<std::pair<int, ConstId>> prebindings;
    std::vector<Generator> generators;
    std::vector<const Condition*> residual;
    /// A residual compare decided false at compile time. The join still
    /// runs with its exact work/probe trace; the innermost drain is
    /// skipped instead of failing the condition per row.
    bool always_false = false;
    std::vector<ValueSource> head_sources;  ///< one per head argument
    /// The head positions the innermost generator's bind ops fill (a
    /// repeated head variable fills several). Every other head position
    /// is a constant or a variable bound above the innermost level, fixed
    /// for a whole drained batch. Set by SplitHead for each generator
    /// order; empty without generators.
    std::vector<HeadColumn> head_inner;
    int scratch_id = -1;  ///< into scratch_ (reusable per-disjunct buffers)
    /// Into planned_: the slot of driver d is plan_slot + 1 + d (Π, then
    /// one per atom).
    int plan_slot = -1;
  };

  struct CompiledRule {
    const Rule* rule = nullptr;
    std::vector<CompiledDisjunct> disjuncts;
  };

  /// One disjunct's moving occurrences under a Schedule: atom index →
  /// occurrence (its atoms of a predicate that carries δ, numbered in
  /// atom order), or -1.
  struct MovingAtoms {
    int count = 0;
    std::vector<int> occ_of_atom;
  };

  /// What one differential round (EvalRound) evaluates: a rule set and
  /// the predicates whose δ it reads. SemiNaive runs one schedule per
  /// reliance group (the group's rules and heads); the Update cascades run
  /// the whole program's (every rule with an IDB body atom, every IDB
  /// predicate). Every atom of any other predicate is converged for the
  /// round and reads T.
  struct Schedule {
    std::vector<int> rules;  ///< ascending
    std::vector<int> heads;  ///< the predicates that carry δ, ascending
    std::vector<std::vector<MovingAtoms>> moving;  ///< per rule, disjunct
    /// Some disjunct has two or more moving occurrences — the only kind
    /// whose rounds read T(t-1), so Cascade keeps a copy only then.
    bool reads_old = false;
  };

  /// Driver of a re-derive program, and the generator atom index of its
  /// level 0: DRed's pruned head tuples Π.
  static constexpr int kPrunedAtom = -1;

  /// One of Engine::Update's planned join programs for a compiled
  /// disjunct, keyed by (rule, disjunct, driver):
  ///  * driver kPrunedAtom — DRed's re-derive program Π(head args) ∧ body.
  ///    Π is the head predicate's pruned tuples, valued One, and drives
  ///    level 0, so head constants and repeated head variables become its
  ///    key positions and check pairs.
  ///  * driver ℓ ≥ 0 — the EDB cross-term seed whose changed occurrence
  ///    (atom index) ℓ reads Δ. Its whole body is planned, so the few Δ
  ///    rows normally drive level 0.
  /// The body (after Π) follows the GreedyJoinOrder (join_plan.h) of the
  /// live row counts it was last planned under; Planned() rebuilds it only
  /// when that order changes. Slots are made by the first Update that
  /// needs one, each with its own scratch slot.
  struct PlannedProgram {
    bool built = false;
    std::vector<JoinStep> order;
    CompiledDisjunct cd;
  };

  /// Reusable join-state buffers for one disjunct evaluation, sized by
  /// SizeScratch(). Executing a disjunct allocates nothing: bindings,
  /// per-level join keys, per-level accumulators and the head tuple all
  /// live here. The engine keeps one per forward and planned program.
  struct Scratch {
    std::vector<ConstId> binding;          ///< rule-variable slots
    std::vector<typename P::Value> acc;    ///< acc[g] = value entering level g
    std::vector<Tuple> keys;               ///< per-level key buffers
    Tuple head;                            ///< head tuple buffer
    /// Per head position: the innermost column that fills it during the
    /// current drain (CompiledDisjunct::head_inner), else null.
    std::vector<const ConstId*> head_cols;
    std::vector<const RowIdList*> entries;  ///< per-level matched row ids
    std::vector<std::size_t> next;         ///< per-level entry cursor
    // Batched join kernel state. Each level owns a kJoinBatch-wide slice
    // of `survivors` (levels are re-entered while their parents still
    // hold half-consumed batches, so the buffers cannot be shared);
    // `batch` points either into that slice (check levels) or straight
    // into the entry list (check-free levels decode zero-copy).
    std::vector<uint32_t> survivors;       ///< levels × kJoinBatch row ids
    std::vector<const uint32_t*> batch;    ///< per-level current batch
    std::vector<uint32_t> batch_pos;       ///< per-level batch cursor
    std::vector<uint32_t> batch_len;       ///< per-level batch fill
    std::vector<RowIdList> point_rows;     ///< per-level point-probe hit
  };

  /// Per-generator inputs of one disjunct evaluation, resolved by
  /// PrepareGens (the only step that touches the index caches and build
  /// counters) and read-only while ExecuteShard joins.
  struct PreparedGens {
    std::vector<const RelationIndex<P>*> pops_idx;
    std::vector<const RelationIndex<BoolS>*> bool_idx;
    std::vector<const Relation<P>*> pops_rel;    ///< row-id decode target
    std::vector<const Relation<BoolS>*> bool_rel;
    /// Per-level representation of the serving index, so ExecuteShard
    /// can classify each Lookup into hash_probes/direct_probes without
    /// re-virtual-dispatching on the index.
    std::vector<IndexRepr> repr;
    /// The driver: level 0's matched entry list (its key depends only on
    /// prebindings, so it is known before execution). Null iff the
    /// disjunct has no generators.
    const RowIdList* level0 = nullptr;
  };

  void Compile() {
    reads_snapshot_.assign(static_cast<std::size_t>(prog_->num_predicates()),
                           false);
    for (const Rule& rule : prog_->rules()) {
      CompiledRule cr;
      cr.rule = &rule;
      for (std::size_t d = 0; d < rule.disjuncts.size(); ++d) {
        const SumProduct& sp = rule.disjuncts[d];
        CompiledDisjunct cd;
        cd.disjunct_index = static_cast<int>(d);
        cd.sp = &sp;

        // Pre-bindings from `Var = const` equality chains.
        std::vector<ConstId> pre(rule.num_vars, kUnbound);
        bool changed = true;
        while (changed) {
          changed = false;
          for (const Condition& c : sp.conditions) {
            if (c.kind != Condition::Kind::kCompare || c.op != CmpOp::kEq) {
              continue;
            }
            auto ground = [&](const Term& t) -> ConstId {
              if (!t.IsVar()) return t.constant;
              return pre[t.var];
            };
            auto bind = [&](const Term& a, const Term& b) {
              if (a.IsVar() && pre[a.var] == kUnbound &&
                  ground(b) != kUnbound) {
                pre[a.var] = ground(b);
                changed = true;
              }
            };
            bind(c.lhs, c.rhs);
            bind(c.rhs, c.lhs);
          }
        }
        std::vector<bool> bound(rule.num_vars, false);
        for (int v = 0; v < rule.num_vars; ++v) {
          if (pre[v] != kUnbound) {
            cd.prebindings.emplace_back(v, pre[v]);
            bound[v] = true;
          }
        }

        for (std::size_t i = 0; i < sp.atoms.size(); ++i) {
          const Atom& a = sp.atoms[i];
          DLO_CHECK_MSG(!a.negated,
                        "negated POPS atoms require the grounded engine");
          AddGenerator(false, static_cast<int>(i), a, &bound, &cd);
        }
        for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
          const Condition& c = sp.conditions[i];
          if (c.kind != Condition::Kind::kBoolAtom) continue;
          bool binds_new = false;
          for (const Term& t : c.atom.args) {
            if (t.IsVar() && !bound[t.var]) binds_new = true;
          }
          if (binds_new) {
            AddGenerator(true, static_cast<int>(i), c.atom, &bound, &cd);
          }
        }
        // Residual checks: everything except bool atoms used as
        // generators — minus compile-time-decidable compares. A compare
        // whose sides are both constants or prebound variables has one
        // truth value for the whole run (prebound variables are never
        // rebound: later occurrences compile to key positions), so
        // re-grounding it per emitted row is pure waste. Always-true
        // ones are dropped here; always-false ones stay residual, so a
        // dead disjunct keeps the exact work/probe trace of its join
        // while emitting nothing.
        for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
          const Condition& c = sp.conditions[i];
          bool is_generator = false;
          for (const Generator& g : cd.generators) {
            if (g.is_bool && g.atom_index == static_cast<int>(i)) {
              is_generator = true;
              break;
            }
          }
          if (is_generator) continue;
          if (c.kind == Condition::Kind::kCompare) {
            std::optional<bool> decided = DecideGroundCompare(c, pre);
            if (decided.has_value() && *decided) continue;
            if (decided.has_value() && !*decided) cd.always_false = true;
          }
          cd.residual.push_back(&c);
        }
        // An EDB cross term reads the pre-mutation snapshot of a changed
        // predicate only at an atom after its Δ atom, which is an EDB
        // atom itself (EvalEdbCrossTerms).
        bool after_edb = false;
        for (const Atom& a : sp.atoms) {
          if (IsIdb(a.pred)) continue;
          if (after_edb) reads_snapshot_[a.pred] = true;
          after_edb = true;
        }

        // Head slots: range restriction (validate.cc) guarantees every
        // head variable is bound once all generators have run.
        for (const Term& t : rule.head.args) {
          if (t.IsVar()) {
            DLO_CHECK_MSG(bound[t.var], "unbound head variable");
            cd.head_sources.push_back(ValueSource{t.var, 0});
          } else {
            cd.head_sources.push_back(ValueSource{-1, t.constant});
          }
        }
        SplitHead(&cd);

        // Reusable evaluation buffers, exactly sized for this disjunct.
        cd.scratch_id = static_cast<int>(scratch_.size());
        Scratch sc;
        SizeScratch(rule, cd, &sc);
        scratch_.push_back(std::move(sc));
        prepared_.emplace_back();
        cd.plan_slot = num_plan_slots_;
        num_plan_slots_ += static_cast<int>(sp.atoms.size()) + 1;

        cr.disjuncts.push_back(std::move(cd));
      }
      compiled_.push_back(std::move(cr));
    }
    for (int g = 0; g < reliance_.num_groups(); ++g) {
      group_schedules_.push_back(
          MakeSchedule(reliance_.groups[g], reliance_.group_heads[g]));
    }
    std::vector<int> readers;  // the rules a δ can trigger
    for (std::size_t r = 0; r < compiled_.size(); ++r) {
      if (!reliance_.rule_body_idb[r].empty()) {
        readers.push_back(static_cast<int>(r));
      }
    }
    program_schedule_ =
        MakeSchedule(std::move(readers), prog_->IdbPredicates());
  }

  /// The schedule of `rules` with δ carried by `heads` (both ascending):
  /// each disjunct's moving occurrences are its atoms of a `heads`
  /// predicate, numbered in atom order.
  Schedule MakeSchedule(std::vector<int> rules, std::vector<int> heads) const {
    Schedule s;
    for (int r : rules) {
      std::vector<MovingAtoms>& per_rule = s.moving.emplace_back();
      for (const SumProduct& sp : prog_->rules()[r].disjuncts) {
        MovingAtoms& m = per_rule.emplace_back();
        m.occ_of_atom.assign(sp.atoms.size(), -1);
        for (std::size_t i = 0; i < sp.atoms.size(); ++i) {
          if (std::binary_search(heads.begin(), heads.end(),
                                 sp.atoms[i].pred)) {
            m.occ_of_atom[i] = m.count++;
          }
        }
        // Occurrence ell reads T(t-1) at the moving occurrences after it.
        if (m.count >= 2) s.reads_old = true;
      }
    }
    s.rules = std::move(rules);
    s.heads = std::move(heads);
    return s;
  }

  /// Sets cd->head_inner from the head sources and the innermost
  /// generator's bind ops (run after the generators are final).
  static void SplitHead(CompiledDisjunct* cd) {
    cd->head_inner.clear();
    if (cd->generators.empty()) return;
    const Generator& inner = cd->generators.back();
    for (std::size_t i = 0; i < cd->head_sources.size(); ++i) {
      for (const BindOp& op : inner.bind_ops) {
        if (op.var == cd->head_sources[i].var) {
          cd->head_inner.push_back(HeadColumn{static_cast<int>(i), op.pos});
        }
      }
    }
  }

  /// Appends the join generator of atom `a` (sp.atoms[index], or the
  /// Boolean condition atom sp.conditions[index]) to `cd`, given the
  /// variables `bound` before it, and marks the variables it binds. One
  /// pass over the argument positions: positions whose value is known
  /// before this generator (constants and already-bound variables) become
  /// index-key slots; the rest become bind/check ops executed per matched
  /// entry: a variable's first occurrence binds it, and each later
  /// occurrence in this atom pairs with that binding position as a check
  /// (see Generator::CheckPair).
  void AddGenerator(bool is_bool, int index, const Atom& a,
                    std::vector<bool>* bound, CompiledDisjunct* cd) const {
    Generator g;
    g.is_bool = is_bool;
    g.atom_index = index;
    g.pred = a.pred;
    g.is_idb = !is_bool && IsIdb(a.pred);
    const std::vector<bool> bound_before = *bound;
    for (std::size_t p = 0; p < a.args.size(); ++p) {
      const Term& t = a.args[p];
      const int pos = static_cast<int>(p);
      if (!t.IsVar()) {
        g.key_positions.push_back(pos);
        g.key_sources.push_back(ValueSource{-1, t.constant});
      } else if (bound_before[t.var]) {
        g.key_positions.push_back(pos);
        g.key_sources.push_back(ValueSource{t.var, 0});
      } else if (!(*bound)[t.var]) {
        g.bind_ops.push_back(BindOp{pos, t.var});
        (*bound)[t.var] = true;
      } else {
        int first_pos = -1;
        for (const BindOp& b : g.bind_ops) {
          if (b.var == t.var) first_pos = b.pos;
        }
        DLO_CHECK_MSG(first_pos >= 0,
                      "check without a same-atom binding occurrence");
        g.check_pairs.push_back({pos, first_pos});
      }
    }
    cd->generators.push_back(std::move(g));
  }

  bool IsIdb(int pred) const {
    return prog_->predicate(pred).kind == PredKind::kIdb;
  }

  /// Bounds cache memory between joining steps — the only time no
  /// RelationIndex references are live.
  void SweepCaches() const {
    pops_cache_.MaybeEvict();
    bool_cache_.MaybeEvict();
  }

  /// F(J) evaluated into `out` (fresh instance), counting join work.
  void ApplyIco(const IdbInstance<P>& j, IdbInstance<P>* out,
                uint64_t* work) const {
    for (const CompiledRule& cr : compiled_) {
      ApplyRule(cr, j, out, /*base=*/nullptr, work);
    }
  }

  /// T ⊕= δ row-wise for one predicate, in δ's row order.
  static void MergeRows(const Relation<P>& from, Relation<P>* into) {
    const uint32_t rows = from.num_rows();
    for (uint32_t r = 0; r < rows; ++r) {
      if (!from.RowLive(r)) continue;
      into->Merge(from.View(r), from.ValueAt(r));
    }
  }

  // ------- Incremental maintenance internals (Engine::Update) -------

  enum class CascadeOutcome { kConverged, kBudget, kInexact };

  /// Full recompute from the (already mutated) EDB into the caller's
  /// instance — the fallback every incremental route shares. Content is
  /// copied into `idb`'s existing Relation objects, so their uids (and
  /// any cached indexes) survive even the fallback.
  void Recompute(IdbInstance<P>* idb, int max_steps,
                 UpdateResult* res) const {
    EvalResult<P> r = SemiNaive(max_steps);
    idb->CopyContentsFrom(r.idb);
    res->rounds += r.steps;
    res->work += r.work;
    if (!r.converged) res->converged = false;
  }

  /// Evaluates the multilinear EDB cross terms of F(T) over a set of
  /// changed EDB predicates, emitting into `out` (as δ relative to `base`
  /// when it is set, see EmitRow): for every disjunct and
  /// every occurrence ℓ of a changed predicate (in atom order), one
  /// sum-product with occurrence ℓ reading delta_by_pred, earlier changed
  /// occurrences reading the live EDB, later ones reading hi_by_pred
  /// (null entry = live EDB) and IDB atoms reading `idb`. With hi = the
  /// pre-mutation snapshots this is exactly F_new(T) "⊖" F_old(T)
  /// realized as fresh mass (multilinearity — no subtraction happens, so
  /// it is valid in any carrier); with hi = live it evaluates the
  /// one-step mass through the delta, the DRed affected seed.
  ///
  /// Which relation each atom reads is fixed by atom order, but the join
  /// order is not: every cross term runs as the planned program of its
  /// changed occurrence (Planned), so the few Δ rows drive level 0 and
  /// APSP's T(X,Z) * Δ(Z,Y) probes T(·,Z) once per Δ row instead of
  /// scanning all of T.
  void EvalEdbCrossTerms(const std::vector<const Relation<P>*>& delta_by_pred,
                         const std::vector<const Relation<P>*>& hi_by_pred,
                         const IdbInstance<P>& idb, IdbInstance<P>* out,
                         const IdbInstance<P>* base, uint64_t* work) const {
    for (const CompiledRule& cr : compiled_) {
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        for (std::size_t i = 0; i < cd.sp->atoms.size(); ++i) {
          const int ell_atom = static_cast<int>(i);
          if (delta_by_pred[cd.sp->atoms[i].pred] == nullptr) continue;
          auto resolver = [&](int atom_index) -> const Relation<P>& {
            const int pred = cd.sp->atoms[atom_index].pred;
            if (IsIdb(pred)) return idb.idb(pred);
            const Relation<P>* d = delta_by_pred[pred];
            if (d == nullptr) return edb_->pops(pred);  // unchanged
            if (atom_index < ell_atom) return edb_->pops(pred);
            if (atom_index == ell_atom) return *d;
            const Relation<P>* hi = hi_by_pred[pred];
            return hi != nullptr ? *hi : edb_->pops(pred);
          };
          const int head = cr.rule->head.pred;
          EvalDisjunct(Planned(cr, cd, ell_atom, resolver), resolver,
                       &out->idb(head), BaseOf(base, head), work);
        }
      }
    }
  }

  /// Whether rule `r` of schedule `s` reads a δ predicate of `s` that
  /// holds a live delta — i.e. whether a round must evaluate it.
  bool Triggered(const Schedule& s, int r, const IdbInstance<P>& delta) const {
    for (int pred : reliance_.rule_body_idb[r]) {
      if (delta.HasSupport(pred) &&
          std::binary_search(s.heads.begin(), s.heads.end(), pred)) {
        return true;
      }
    }
    return false;
  }

  /// One differential round (Eq. 64 with caller-supplied instances), the
  /// only one there is: out ⊕= Σ_disjuncts Σ_ℓ G(cur <ℓ, delta at ℓ,
  /// prev >ℓ) over the triggered rules of `s`, ℓ ranging over each
  /// disjunct's moving occurrences, every other atom reading `cur` or the
  /// live EDB, in (rule, disjunct, ℓ) order. A rule with no live δ to read
  /// adds nothing and counts into rules_skipped(). Each contribution is
  /// emitted as δ relative to `base` when it is set (EmitRow).
  void EvalRound(const Schedule& s, const IdbInstance<P>& cur,
                 const IdbInstance<P>& delta, const IdbInstance<P>& prev,
                 IdbInstance<P>* out, const IdbInstance<P>* base,
                 uint64_t* work) const {
    for (std::size_t i = 0; i < s.rules.size(); ++i) {
      if (!Triggered(s, s.rules[i], delta)) {
        ++rules_skipped_;
        continue;
      }
      const CompiledRule& cr = compiled_[s.rules[i]];
      const int head = cr.rule->head.pred;
      for (std::size_t d = 0; d < cr.disjuncts.size(); ++d) {
        const CompiledDisjunct& cd = cr.disjuncts[d];
        const MovingAtoms& m = s.moving[i][d];
        // count == 0: the disjunct reads nothing that still moves — its
        // one-shot contribution was the seed's.
        for (int ell = 0; ell < m.count; ++ell) {
          auto resolver = [&](int atom_index) -> const Relation<P>& {
            const int pred = cd.sp->atoms[atom_index].pred;
            if (!IsIdb(pred)) return edb_->pops(pred);
            const int occ = m.occ_of_atom[atom_index];
            if (occ < 0 || occ < ell) return cur.idb(pred);
            if (occ == ell) return delta.idb(pred);
            return prev.idb(pred);
          };
          EvalDisjunct(cd, resolver, &out->idb(head), BaseOf(base, head),
                       work);
        }
      }
    }
  }

  /// `base`'s relation for `pred`, or null when there is no base.
  static const Relation<P>* BaseOf(const IdbInstance<P>* base, int pred) {
    return base != nullptr ? &base->idb(pred) : nullptr;
  }

  /// The one semi-naive cascade loop, shared by SemiNaive (per reliance
  /// group) and the Update insert and re-derive cascades (whole program):
  /// T ⊕= the seed's δ, which the caller left in `delta` relative to T,
  /// then differential rounds (EvalRound, each counted into `*rounds`)
  /// whose δ relative to T is emitted into `next`, handed to `delta` by
  /// SwapRows (a soft Clear, so δ's cached indexes refresh incrementally)
  /// and merged into T — until δ drains or triggers no rule. Returns
  /// false when the budget (`*rounds` reaching max_steps) runs out first,
  /// leaving T mid-cascade.
  bool Cascade(const Schedule& s, IdbInstance<P>* t, IdbInstance<P>* delta,
               int max_steps, int* rounds, uint64_t* work) const {
    if (!delta->AnySupport(s.heads)) return true;
    IdbInstance<P> t_old(*prog_);  // T before the last merge (s.reads_old)
    IdbInstance<P> next(*prog_);
    for (;;) {
      if (s.reads_old) t_old.CopyPredsFrom(*t, s.heads);
      for (int pred : s.heads) MergeRows(delta->idb(pred), &t->idb(pred));
      t->CompactPreds(s.heads);
      if (std::none_of(s.rules.begin(), s.rules.end(),
                       [&](int r) { return Triggered(s, r, *delta); })) {
        return true;
      }
      if (*rounds >= max_steps) return false;
      SweepCaches();
      next.ClearPreds(s.heads);
      EvalRound(s, *t, *delta, t_old, &next, /*base=*/t, work);
      ++*rounds;
      if (!next.AnySupport(s.heads)) return true;
      delta->SwapRows(&next, s.heads);
    }
  }

  /// One side of an update batch, staged for EvalEdbCrossTerms: Δ per
  /// EDB predicate, and the pre-mutation copy a cross term reads after
  /// its Δ occurrence (reads_snapshot_).
  struct StagedDelta {
    std::vector<std::unique_ptr<Relation<P>>> owned;
    std::vector<const Relation<P>*> delta;  ///< null: unchanged predicate
    std::vector<const Relation<P>*> snap;   ///< null: read the live EDB
    bool any = false;                       ///< some Δ is non-empty
  };

  /// Stages `changes` (the batch's pops_adds or pops_deletes): a fresh Δ
  /// per changed predicate, holding each add's value or each present
  /// deleted fact's stored value; a Δ that ends empty is nulled. With
  /// `mutate`, the changes are also applied to the live EDB (⊕-merge or
  /// Erase), and every changed predicate in reads_snapshot_ is first
  /// copied, so its snapshot is the EDB as of this call.
  template <typename Change>
  StagedDelta StageDelta(const std::vector<Change>& changes, bool mutate,
                         EdbInstance<P>* edb) const {
    const auto n = static_cast<std::size_t>(prog_->num_predicates());
    StagedDelta st;
    st.snap.assign(n, nullptr);
    std::vector<Relation<P>*> rel(n, nullptr);
    for (const Change& c : changes) {
      if (rel[c.pred] != nullptr) continue;
      const Relation<P>& live = edb->pops(c.pred);
      if (mutate && reads_snapshot_[c.pred]) {
        st.owned.push_back(std::make_unique<Relation<P>>(live));
        st.snap[c.pred] = st.owned.back().get();
      }
      st.owned.push_back(std::make_unique<Relation<P>>(live.arity()));
      rel[c.pred] = st.owned.back().get();
    }
    for (const Change& c : changes) {
      Relation<P>& live = edb->pops(c.pred);
      if constexpr (std::is_same_v<Change, typename EdbDelta<P>::PopsAdd>) {
        rel[c.pred]->Merge(c.tuple, c.value);
        if (mutate) live.Merge(c.tuple, c.value);
      } else {
        const typename P::Value old_v = live.Get(c.tuple);
        if (P::Eq(old_v, P::Zero())) continue;  // absent: a no-op delete
        rel[c.pred]->Set(c.tuple, old_v);
        if (mutate) live.Erase(c.tuple);
      }
    }
    st.delta.assign(n, nullptr);
    for (std::size_t p = 0; p < n; ++p) {
      if (rel[p] == nullptr || rel[p]->empty()) continue;
      st.delta[p] = rel[p];
      st.any = true;
    }
    return st;
  }

  /// Insert-only cascade: stage the adds (snapshots first, then ⊕-merge
  /// into the live EDB), seed with the EDB cross terms — emitted as δ
  /// relative to T, see EmitRow — then run ordinary differential rounds
  /// from the warm T.
  void InsertCascade(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                     IdbInstance<P>* idb, int max_steps,
                     UpdateResult* res) const {
    const StagedDelta adds = StageDelta(batch.pops_adds, /*mutate=*/true, edb);
    if (!adds.any) return;  // all-⊥ adds: nothing actually changed
    SweepCaches();
    IdbInstance<P> delta(*prog_);
    uint64_t work = 0;
    EvalEdbCrossTerms(adds.delta, adds.snap, *idb, &delta, /*base=*/idb,
                      &work);
    ++res->rounds;
    if (!Cascade(program_schedule_, idb, &delta, max_steps, &res->rounds,
                 &work)) {
      res->converged = false;
    }
    res->work += work;
  }

  /// Exact-deletion cascade for count-carrying carriers: stage the deletes
  /// (snapshots first, then Erase the facts: E_new), then subtract the
  /// removed derivation mass back out of T round by round. The seed is
  /// the same cross-term evaluator as the insert cascade — the removed
  /// mass of one ICO step; each round retracts the previous round's rows
  /// from T (DeletionTraits::Retract — exact) and evaluates the next
  /// cross terms over the (retracted, previous) pair. Terminates when no
  /// mass is left to remove. Any Retract failure — a saturated value has
  /// forgotten its count — aborts with kInexact: the EDB deletes are
  /// already applied and `idb`'s contents are garbage until the caller's
  /// recompute overwrites them (Recompute ignores prior contents).
  CascadeOutcome ExactDeleteCascade(const EdbDelta<P>& batch,
                                    EdbInstance<P>* edb, IdbInstance<P>* idb,
                                    int max_steps, UpdateResult* res) const
    requires SupportsExactDeletion<P>
  {
    const StagedDelta dels =
        StageDelta(batch.pops_deletes, /*mutate=*/true, edb);
    if (!dels.any) return CascadeOutcome::kConverged;
    SweepCaches();
    IdbInstance<P> candidate(*prog_);
    uint64_t work = 0;
    EvalEdbCrossTerms(dels.delta, dels.snap, *idb, &candidate,
                      /*base=*/nullptr, &work);
    ++res->rounds;
    IdbInstance<P> removed(*prog_);  // δ⁻ the next round propagates
    IdbInstance<P> t_prev(*prog_);
    const std::vector<int>& preds = program_schedule_.heads;
    while (true) {
      if (!candidate.AnySupport(preds)) {
        res->work += work;
        return CascadeOutcome::kConverged;
      }
      removed.SwapRows(&candidate, preds);
      // T_prev ← T (when a disjunct reads it), then T ⊖= removed (exact,
      // or bail out).
      if (program_schedule_.reads_old) t_prev.CopyContentsFrom(*idb);
      for (int pred : preds) {
        const Relation<P>& rem = removed.idb(pred);
        Relation<P>& t = idb->idb(pred);
        const uint32_t rows = rem.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!rem.RowLive(r)) continue;
          typename P::Value left;
          if (!DeletionTraits<P>::Retract(t.Get(rem.View(r)), rem.ValueAt(r),
                                          &left)) {
            res->work += work;
            return CascadeOutcome::kInexact;
          }
          t.Set(rem.View(r), left);  // ⊥ tombstones the row
        }
      }
      idb->CompactAll();
      if (res->rounds >= max_steps) {
        res->work += work;
        return CascadeOutcome::kBudget;
      }
      SweepCaches();
      candidate.ClearAll();
      EvalRound(program_schedule_, *idb, removed, t_prev, &candidate,
                /*base=*/nullptr, &work);
      ++res->rounds;
    }
  }

  /// DRed for complete distributive dioids, in three phases. (1) AFFECTED
  /// cascade over the pre-mutation instance: a semi-naive fixpoint of the
  /// one-step mass through the deleted facts, carrying the real removed
  /// ⊕-values so selective-⊕ carriers (min/max/or) can drop tuples whose
  /// stored optimum beats every deleted-using derivation. Correctness of
  /// that filter is optimal substructure: subtrees of an optimal
  /// deleted-using tree are optimal deleted-using at their own roots, so
  /// every truly affected tuple — ties included — survives. Non-selective
  /// dioids (PosBool) keep the whole reachable cone (plain support-level
  /// DRed). (2) Prune the cone from T and apply the whole EDB batch.
  /// (3) Re-derive: seed = insert cross terms ⊕ F(T)(u) for every pruned
  /// tuple u (RederivePruned: forward join programs driven by the pruned
  /// set), then ordinary differential rounds. Unpruned rows need no seed
  /// slot — they satisfy F_new(T_start)(u) ⊑ T_start(u), so their diff is
  /// ⊥.
  void DredUpdate(const EdbDelta<P>& batch, EdbInstance<P>* edb,
                  IdbInstance<P>* idb, int max_steps,
                  UpdateResult* res) const
    requires CompleteDistributiveDioid<P>
  {
    uint64_t work = 0;
    // ---- Phase 1: affected cascade (EDB not yet mutated). ----
    const StagedDelta dels =
        StageDelta(batch.pops_deletes, /*mutate=*/false, edb);
    IdbInstance<P> candidate(*prog_);
    IdbInstance<P> affected(*prog_);   // accumulated affected mass
    IdbInstance<P> aff_delta(*prog_);  // last round's fresh mass
    SweepCaches();
    EvalEdbCrossTerms(dels.delta, dels.snap, *idb, &candidate,
                      /*base=*/nullptr, &work);
    ++res->rounds;
    while (true) {
      aff_delta.ClearAll();
      bool any = false;
      for (int pred : prog_->IdbPredicates()) {
        const Relation<P>& c = candidate.idb(pred);
        const Relation<P>& told = idb->idb(pred);
        const Relation<P>& acc = affected.idb(pred);
        Relation<P>& out = aff_delta.idb(pred);
        const uint32_t rows = c.num_rows();
        for (uint32_t r = 0; r < rows; ++r) {
          if (!c.RowLive(r)) continue;
          const typename P::Value cv = c.ValueAt(r);
          if constexpr (DeletionTraits<P>::kSelectivePlus) {
            // The stored optimum beats every deleted-using derivation of
            // this tuple: the tuple — and anything reachable through it
            // ALONE — is unaffected.
            if (!P::Eq(P::Plus(cv, told.Get(c.View(r))), cv)) continue;
          }
          const typename P::Value d = P::Minus(cv, acc.Get(c.View(r)));
          if (P::Eq(d, P::Zero())) continue;
          out.Set(c.View(r), d);
          any = true;
        }
      }
      if (!any) break;
      for (int pred : prog_->IdbPredicates()) {
        MergeRows(aff_delta.idb(pred), &affected.idb(pred));
      }
      if (res->rounds >= max_steps) {
        // Budget blew inside the affected cascade: apply the EDB batch so
        // the instance at least reflects it, and report non-convergence
        // (idb is stale, like any non-converged run's partial output).
        for (const auto& del : batch.pops_deletes) {
          edb->pops(del.pred).Erase(del.tuple);
        }
        for (const auto& add : batch.pops_adds) {
          edb->pops(add.pred).Merge(add.tuple, add.value);
        }
        res->converged = false;
        res->work += work;
        return;
      }
      SweepCaches();
      candidate.ClearAll();
      EvalRound(program_schedule_, *idb, aff_delta, *idb, &candidate,
                /*base=*/nullptr, &work);
      ++res->rounds;
    }
    // ---- Phase 2: prune the cone, apply the EDB batch. ----
    IdbInstance<P> pruned(*prog_);  // the re-derive drivers Π, valued One
    for (int pred : prog_->IdbPredicates()) {
      const Relation<P>& a = affected.idb(pred);
      Relation<P>& t = idb->idb(pred);
      const uint32_t rows = a.num_rows();
      for (uint32_t r = 0; r < rows; ++r) {
        if (!a.RowLive(r)) continue;
        if (t.Erase(a.View(r))) pruned.idb(pred).Set(a.View(r), P::One());
      }
    }
    idb->CompactAll();
    for (const auto& del : batch.pops_deletes) {
      edb->pops(del.pred).Erase(del.tuple);
    }
    // Staged AFTER the deletes, so the insert seed's later-occurrence
    // slots read the mid-mutation snapshot.
    const StagedDelta adds = StageDelta(batch.pops_adds, /*mutate=*/true, edb);
    // ---- Phase 3: re-derive, emitting δ relative to the pruned T. ----
    SweepCaches();
    IdbInstance<P> delta(*prog_);
    if (adds.any) {
      EvalEdbCrossTerms(adds.delta, adds.snap, *idb, &delta, /*base=*/idb,
                        &work);
    }
    RederivePruned(pruned, *idb, &delta, &work);
    ++res->rounds;
    if (!Cascade(program_schedule_, idb, &delta, max_steps, &res->rounds,
                 &work)) {
      res->converged = false;
    }
    for (int pred : prog_->IdbPredicates()) {
      const Relation<P>& p = pruned.idb(pred);
      const Relation<P>& t = idb->idb(pred);
      for (uint32_t r = 0; r < p.num_rows(); ++r) {
        if (!P::Eq(t.Get(p.View(r)), P::Zero())) ++res->deleted_rederived;
      }
    }
    res->work += work;
  }

  /// DRed's re-derive seed: F(T)(u) for every pruned tuple u, emitted into
  /// `out` as δ relative to `idb` (EmitRow). Runs the re-derive program
  /// (PlannedProgram, driver Π) of every disjunct whose head lost tuples
  /// through the ordinary join kernel, reading `pruned` for Π, `idb` for
  /// the body's IDB atoms and the live (mutated) EDB. Emission order
  /// differs from a recompute's, which is sound because ⊕ is exactly
  /// associative and commutative on every DRed carrier
  /// (min/max/or/antichain union); ⊗ order is GreedyJoinOrder's.
  void RederivePruned(const IdbInstance<P>& pruned, const IdbInstance<P>& idb,
                      IdbInstance<P>* out, uint64_t* work) const {
    for (const CompiledRule& cr : compiled_) {
      const int head = cr.rule->head.pred;
      if (pruned.idb(head).empty()) continue;
      for (const CompiledDisjunct& cd : cr.disjuncts) {
        auto resolver = [&](int atom_index) -> const Relation<P>& {
          if (atom_index == kPrunedAtom) return pruned.idb(head);
          const int pred = cd.sp->atoms[atom_index].pred;
          return IsIdb(pred) ? idb.idb(pred) : edb_->pops(pred);
        };
        EvalDisjunct(Planned(cr, cd, kPrunedAtom, resolver), resolver,
                     &out->idb(head), &idb.idb(head), work);
      }
    }
  }

  /// The planned program of (cr, fwd, driver) — see PlannedProgram — for
  /// the live row counts of the relations `resolver` returns, planned with
  /// the prebindings (and, under Π, the head variables) bound. Rebuilt
  /// only when its GreedyJoinOrder moved. Positive Boolean condition atoms
  /// all become generators here, so only compares and negated atoms stay
  /// residual. Every level after level 0 whose key covers the whole atom
  /// is a point probe; level 0 never is, since PrepareGens looks the
  /// driver up through an index.
  template <typename Resolver>
  const CompiledDisjunct& Planned(const CompiledRule& cr,
                                  const CompiledDisjunct& fwd, int driver,
                                  Resolver&& resolver) const {
    if (planned_.empty()) {
      planned_.resize(static_cast<std::size_t>(num_plan_slots_));
    }
    PlannedProgram& pp =
        planned_[static_cast<std::size_t>(fwd.plan_slot + 1 + driver)];
    const Rule& rule = *cr.rule;
    const SumProduct& sp = *fwd.sp;
    std::vector<bool> bound(static_cast<std::size_t>(rule.num_vars), false);
    for (const auto& [v, c] : fwd.prebindings) bound[v] = true;
    std::vector<bool> body_bound = bound;
    if (driver == kPrunedAtom) {
      for (const Term& t : rule.head.args) {
        if (t.IsVar()) body_bound[t.var] = true;
      }
    }
    std::vector<std::size_t> atom_rows(sp.atoms.size(), 0);
    for (std::size_t i = 0; i < sp.atoms.size(); ++i) {
      atom_rows[i] = resolver(static_cast<int>(i)).support_size();
    }
    std::vector<std::size_t> cond_rows(sp.conditions.size(), 0);
    for (std::size_t j = 0; j < sp.conditions.size(); ++j) {
      const Condition& c = sp.conditions[j];
      if (c.kind == Condition::Kind::kBoolAtom) {
        cond_rows[j] = edb_->boolean(c.atom.pred).support_size();
      }
    }
    std::vector<JoinStep> order =
        GreedyJoinOrder(sp, body_bound, atom_rows, cond_rows);
    if (pp.built && order == pp.order) return pp.cd;

    CompiledDisjunct cd;
    cd.disjunct_index = fwd.disjunct_index;
    cd.sp = fwd.sp;
    cd.prebindings = fwd.prebindings;
    cd.always_false = fwd.always_false;
    cd.head_sources = fwd.head_sources;
    cd.scratch_id = pp.cd.scratch_id;
    if (cd.scratch_id < 0) {
      cd.scratch_id = static_cast<int>(scratch_.size());
      scratch_.emplace_back();
      prepared_.emplace_back();
    }
    if (driver == kPrunedAtom) {
      AddGenerator(false, kPrunedAtom, rule.head, &bound, &cd);
    }
    for (const JoinStep& step : order) {
      const Atom& a = step.is_bool ? sp.conditions[step.index].atom
                                   : sp.atoms[step.index];
      AddGenerator(step.is_bool, step.index, a, &bound, &cd);
      Generator& g = cd.generators.back();
      g.point = cd.generators.size() > 1 &&
                g.key_positions.size() == a.args.size();
    }
    for (const Condition* c : fwd.residual) {
      if (c->kind != Condition::Kind::kBoolAtom) cd.residual.push_back(c);
    }
    SplitHead(&cd);
    SizeScratch(rule, cd, &scratch_[static_cast<std::size_t>(cd.scratch_id)]);
    pp.cd = std::move(cd);
    pp.order = std::move(order);
    pp.built = true;
    return pp.cd;
  }

  /// One rule's contribution to F(J), emitted into `out` (as δ relative
  /// to `base` when it is set, see EmitRow).
  void ApplyRule(const CompiledRule& cr, const IdbInstance<P>& j,
                 IdbInstance<P>* out, const IdbInstance<P>* base,
                 uint64_t* work) const {
    for (const CompiledDisjunct& cd : cr.disjuncts) {
      auto resolver = [&](int atom_index) -> const Relation<P>& {
        const int pred = cd.sp->atoms[atom_index].pred;
        return IsIdb(pred) ? j.idb(pred) : edb_->pops(pred);
      };
      const int head = cr.rule->head.pred;
      EvalDisjunct(cd, resolver, &out->idb(head), BaseOf(base, head), work);
    }
  }

  ConstId GroundTerm(const Term& t,
                     const std::vector<ConstId>& binding) const {
    if (!t.IsVar()) return t.constant;
    return binding[t.var];
  }

  /// Out of line on purpose: inlined into ResidualHolds, its only
  /// caller, this body would bloat the join kernel's per-row drain loop
  /// (DrainRows) for the many disjuncts that have no residual at all.
  [[gnu::noinline]] bool CheckCondition(
      const Condition& c, const std::vector<ConstId>& binding) const {
    switch (c.kind) {
      case Condition::Kind::kBoolAtom:
      case Condition::Kind::kNegBoolAtom: {
        Tuple t;
        t.reserve(c.atom.args.size());
        for (const Term& term : c.atom.args) {
          ConstId id = GroundTerm(term, binding);
          DLO_CHECK(id != kUnbound);
          t.push_back(id);
        }
        bool holds = edb_->boolean(c.atom.pred).Get(t);
        return c.kind == Condition::Kind::kBoolAtom ? holds : !holds;
      }
      case Condition::Kind::kCompare: {
        ConstId l = GroundTerm(c.lhs, binding);
        ConstId r = GroundTerm(c.rhs, binding);
        DLO_CHECK(l != kUnbound && r != kUnbound);
        if (c.op == CmpOp::kEq) return l == r;
        if (c.op == CmpOp::kNe) return l != r;
        auto li = prog_->domain()->AsInt(l);
        auto ri = prog_->domain()->AsInt(r);
        DLO_CHECK_MSG(li.has_value() && ri.has_value(),
                      "order comparison requires integer constants");
        switch (c.op) {
          case CmpOp::kLt:
            return *li < *ri;
          case CmpOp::kLe:
            return *li <= *ri;
          case CmpOp::kGt:
            return *li > *ri;
          case CmpOp::kGe:
            return *li >= *ri;
          default:
            return false;
        }
      }
    }
    return false;
  }

  /// Compile-time truth value of a compare condition under the
  /// disjunct's prebindings, or nullopt when a side is unbound at
  /// compile time (or an ordered compare reaches a non-integer constant
  /// — left for the runtime check so compilation cannot fail on a
  /// condition no emitted row would ever reach).
  std::optional<bool> DecideGroundCompare(const Condition& c,
                                          const std::vector<ConstId>& pre)
      const {
    auto ground = [&](const Term& t) -> ConstId {
      if (!t.IsVar()) return t.constant;
      return pre[t.var];
    };
    const ConstId l = ground(c.lhs);
    const ConstId r = ground(c.rhs);
    if (l == kUnbound || r == kUnbound) return std::nullopt;
    if (c.op == CmpOp::kEq) return l == r;
    if (c.op == CmpOp::kNe) return l != r;
    auto li = prog_->domain()->AsInt(l);
    auto ri = prog_->domain()->AsInt(r);
    if (!li.has_value() || !ri.has_value()) return std::nullopt;
    switch (c.op) {
      case CmpOp::kLt:
        return *li < *ri;
      case CmpOp::kLe:
        return *li <= *ri;
      case CmpOp::kGt:
        return *li > *ri;
      case CmpOp::kGe:
        return *li >= *ri;
      default:
        return std::nullopt;
    }
  }

  /// Sizes a Scratch's buffers for one disjunct (idempotent; reuses
  /// capacity when a planned program is rebuilt).
  void SizeScratch(const Rule& rule, const CompiledDisjunct& cd,
                   Scratch* sc) const {
    sc->binding.assign(static_cast<std::size_t>(rule.num_vars), kUnbound);
    sc->acc.assign(cd.generators.size() + 1, P::One());
    sc->keys.clear();
    sc->keys.reserve(cd.generators.size());
    for (const Generator& g : cd.generators) {
      sc->keys.emplace_back(g.key_positions.size(), 0);
    }
    sc->head = Tuple(rule.head.args.size(), 0);
    sc->head_cols.assign(rule.head.args.size(), nullptr);
    sc->entries.assign(cd.generators.size(), nullptr);
    sc->next.assign(cd.generators.size(), 0);
    sc->survivors.assign(cd.generators.size() * kJoinBatch, 0);
    sc->batch.assign(cd.generators.size(), nullptr);
    sc->batch_pos.assign(cd.generators.size(), 0);
    sc->batch_len.assign(cd.generators.size(), 0);
    sc->point_rows.resize(cd.generators.size());
  }

  /// The head key of one drained row, read in place: position p is the
  /// innermost column cols[p] at `row` when that level fills it, else
  /// the head buffer's id, written once per drain (BeginDrain).
  struct DrainedHeadKey {
    const ConstId* head;
    const ConstId* const* cols;
    std::size_t n;
    uint32_t row = 0;
    std::size_t size() const { return n; }
    ConstId operator[](std::size_t p) const {
      return cols[p] != nullptr ? cols[p][row] : head[p];
    }
  };

  /// Once per drained batch: writes the head positions fixed for the
  /// whole batch (constants, variables bound above the innermost level)
  /// into the head buffer, points the positions the innermost level
  /// fills at its columns (`col(pos)` is that level's column span) and
  /// returns the batch's head key.
  template <typename ColumnOf>
  static DrainedHeadKey BeginDrain(const CompiledDisjunct& cd, Scratch& sc,
                                   ColumnOf&& col) {
    for (std::size_t i = 0; i < cd.head_sources.size(); ++i) {
      const ValueSource& s = cd.head_sources[i];
      sc.head[i] = s.var >= 0 ? sc.binding[s.var] : s.constant;
    }
    for (const HeadColumn& h : cd.head_inner) {
      sc.head_cols[static_cast<std::size_t>(h.head_pos)] = col(h.col);
    }
    return DrainedHeadKey{sc.head.data(), sc.head_cols.data(),
                          sc.head.size()};
  }

  /// Whether every residual condition holds under the current bindings.
  bool ResidualHolds(const CompiledDisjunct& cd, const Scratch& sc) const {
    for (const Condition* c : cd.residual) {
      if (!CheckCondition(*c, sc.binding)) return false;
    }
    return true;
  }

  /// The per-row emission step for a join result of value c ≠ 0 whose
  /// residual conditions hold, at head key `key` (BeginDrain, `key.row`
  /// set to the row): relative to `base`, one probe of T's row for the
  /// key; only a surviving contribution writes the row's head positions
  /// into the head buffer and reaches `out`. `bottom` is P::Bottom(),
  /// hoisted out of the drain. Forced inline: GCC otherwise leaves it out
  /// of line in DrainRows, which costs parity_paths' fuzzy fixpoint about
  /// a sixth of its time.
  ///
  /// With `base` null, c is merged as is. Otherwise `out` is the next δ
  /// and `base` the head's current T, which nothing writes while a round
  /// runs. On a complete distributive dioid c ⊖ T(u) is merged and ⊥
  /// skipped: since (x ⊕ y) ⊖ a = (x ⊖ a) ⊕ (y ⊖ a) (Eq. 58), δ(u) is
  /// F(T)(u) ⊖ T(u), bit for bit on every shipped dioid, whose ⊕ is exact
  /// (min, max, or, antichain union).
  /// On other carriers the contributions ARE the fresh derivation mass
  /// (the cross terms never double-count, by multilinearity), so c is
  /// merged verbatim — unless T(u) already ⊕-absorbs it, which in the
  /// shipped carriers means a saturated value (ℕ's ∞, saturated
  /// polynomial coefficients). A row's sum is absorbed iff each of its
  /// contributions is, so this drops exactly the absorbed rows. Dropping
  /// them is what makes cascades through saturated cycles terminate, and
  /// is sound because an absorbed row can only produce further absorbed
  /// mass downstream: any one-step image a ⊗ c ⊗ b of mass c absorbed at
  /// a saturated tuple is itself absorbed by the a ⊗ T(u) ⊗ b mass the
  /// target already holds.
  [[gnu::always_inline]] void EmitRow(const CompiledDisjunct& cd,
                                      Scratch& sc, const DrainedHeadKey& key,
                                      const typename P::Value& c,
                                      const typename P::Value& bottom,
                                      Relation<P>* out,
                                      const Relation<P>* base) const {
    auto merge = [&](const typename P::Value& v) {
      for (const HeadColumn& h : cd.head_inner) {
        const std::size_t p = static_cast<std::size_t>(h.head_pos);
        sc.head[p] = key.cols[p][key.row];
      }
      out->Merge(sc.head, v);
    };
    if (base == nullptr) return merge(c);
    const typename P::Value* tp = base->LiveValue(key);
    const typename P::Value& t = tp != nullptr ? *tp : bottom;
    if constexpr (CompleteDistributiveDioid<P>) {
      const typename P::Value d = P::Minus(c, t);
      if (!P::Eq(d, P::Zero())) merge(d);
    } else {
      if (!P::Eq(P::Plus(t, c), t)) merge(c);
    }
  }

  /// Emits one innermost-level batch `rows` of `rel` (level `gen`,
  /// entered with acc_in) into `out`, relative to `base`: the head set-up
  /// runs once (BeginDrain), then per row only ⊗, the ⊥ test on c, the
  /// innermost bindings and residual checks when the disjunct has
  /// residual conditions, and EmitRow. Without residual conditions the
  /// innermost bind ops never run: the head key reads the columns.
  template <typename Rel>
  void DrainRows(const CompiledDisjunct& cd, const Generator& gen,
                 const Rel& rel, const uint32_t* rows, std::size_t n,
                 const typename P::Value& acc_in, Scratch& sc,
                 Relation<P>* out, const Relation<P>* base) const {
    constexpr bool kBoolLevel = std::is_same_v<Rel, Relation<BoolS>>;
    // A Boolean level keeps acc_in: ⊥ for one row is ⊥ for the batch.
    if constexpr (kBoolLevel) {
      if (P::Eq(acc_in, P::Zero())) return;
    }
    DrainedHeadKey key =
        BeginDrain(cd, sc, [&](int pos) { return rel.column_data(pos); });
    const bool residual = !cd.residual.empty();
    const typename P::Value bottom = P::Bottom();
    for (std::size_t i = 0; i < n; ++i) {
      key.row = rows[i];
      auto emit = [&](const typename P::Value& c) {
        if (residual) {
          for (const BindOp& op : gen.bind_ops) {
            sc.binding[op.var] = rel.Cell(key.row, op.pos);
          }
          if (!ResidualHolds(cd, sc)) return;
        }
        EmitRow(cd, sc, key, c, bottom, out, base);
      };
      if constexpr (kBoolLevel) {
        emit(acc_in);
      } else {
        const typename P::Value c = P::Times(acc_in, rel.ValueAt(key.row));
        if (!P::Eq(c, P::Zero())) emit(c);
      }
    }
  }

  /// Evaluates one sum-product under `resolver` (mapping IDB atom indexes
  /// to the relation instance to read), emitting results into `out` (as
  /// δ relative to `base` when it is set, see EmitRow): prepare, then
  /// execute the driver with the disjunct's own scratch slot.
  template <typename Resolver>
  void EvalDisjunct(const CompiledDisjunct& cd, Resolver&& resolver,
                    Relation<P>* out, const Relation<P>* base,
                    uint64_t* work) const {
    PreparedGens& prep = prepared_[static_cast<std::size_t>(cd.scratch_id)];
    PrepareGens(cd, resolver, &prep);
    ExecuteShard(cd, prep, scratch_[static_cast<std::size_t>(cd.scratch_id)],
                 out, base, work);
  }

  /// Prepare step of one disjunct evaluation: resolves every generator's
  /// relation and index (through the cache — the only place build/hit
  /// counters move) and looks up the driver entry list (level 0's key
  /// depends only on prebindings).
  template <typename Resolver>
  void PrepareGens(const CompiledDisjunct& cd, Resolver&& resolver,
                   PreparedGens* prep) const {
    const std::size_t levels = cd.generators.size();
    prep->pops_idx.assign(levels, nullptr);
    prep->bool_idx.assign(levels, nullptr);
    prep->pops_rel.assign(levels, nullptr);
    prep->bool_rel.assign(levels, nullptr);
    prep->repr.assign(levels, IndexRepr::kHashMap);
    prep->level0 = nullptr;
    for (std::size_t g = 0; g < levels; ++g) {
      const Generator& gen = cd.generators[g];
      if (gen.point) {  // probes the row-id table: no index to resolve
        if (gen.is_bool) {
          prep->bool_rel[g] = &edb_->boolean(gen.pred);
        } else {
          prep->pops_rel[g] = &resolver(gen.atom_index);
        }
        continue;
      }
      if (gen.is_bool) {
        const Relation<BoolS>& rel = edb_->boolean(gen.pred);
        // Boolean condition atoms always read the EDB: pin the entry
        // (never evicted, never re-scanned) and attribute its scan.
        const uint64_t scans = bool_cache_.scan_rows();
        prep->bool_idx[g] =
            &bool_cache_.Get(rel, gen.key_positions, /*pin=*/true);
        edb_index_scan_rows_ += bool_cache_.scan_rows() - scans;
        prep->bool_rel[g] = &rel;
        prep->repr[g] = prep->bool_idx[g]->repr();
      } else {
        // ALL POPS atoms resolve through the resolver: the standard
        // resolvers return the live EDB relation for non-IDB atoms, while
        // Engine::Update's seed resolvers substitute snapshot/delta
        // relations for changed EDB predicates. Pinning and the EDB-scan
        // counter apply only to the live EDB relation itself — substitute
        // relations are transient, so their cache entries must stay
        // evictable and must not disturb the EDB-scan invariant.
        const Relation<P>& rel = resolver(gen.atom_index);
        const bool base_edb = !gen.is_idb && &rel == &edb_->pops(gen.pred);
        const uint64_t before = pops_cache_.builds();
        const uint64_t scans = pops_cache_.scan_rows();
        prep->pops_idx[g] =
            &pops_cache_.Get(rel, gen.key_positions, /*pin=*/base_edb);
        if (!base_edb) {
          if (pops_cache_.builds() != before) {
            ++idb_index_builds_;
          } else {
            ++idb_index_hits_;
          }
        } else {
          edb_index_scan_rows_ += pops_cache_.scan_rows() - scans;
        }
        prep->pops_rel[g] = &rel;
        prep->repr[g] = prep->pops_idx[g]->repr();
      }
    }
    if (levels == 0) return;
    // The driver entry list: level 0's key sources are constants or
    // prebound variables (nothing else is bound before the first
    // generator), so the lookup is independent of join state.
    const Generator& g0 = cd.generators[0];
    Tuple key(g0.key_positions.size(), 0);
    for (std::size_t i = 0; i < g0.key_sources.size(); ++i) {
      const ValueSource& s = g0.key_sources[i];
      if (s.var < 0) {
        key[i] = s.constant;
        continue;
      }
      ConstId c = kUnbound;
      for (const auto& [v, pc] : cd.prebindings) {
        if (v == s.var) c = pc;
      }
      DLO_CHECK(c != kUnbound);
      key[i] = c;
    }
    CountProbe(prep->repr[0]);
    prep->level0 = g0.is_bool ? &prep->bool_idx[0]->Lookup(key)
                              : &prep->pops_idx[0]->Lookup(key);
  }

  /// Classifies one index Lookup into the probe counters.
  void CountProbe(IndexRepr repr) const {
    if (repr == IndexRepr::kHashMap) {
      ++hash_probes_;
    } else if (repr == IndexRepr::kDirectArray) {
      ++direct_probes_;
    }  // kAllRows: no key is consulted at all.
  }

  /// Execute step: joins every driver entry of a prepared disjunct into
  /// `out` (through DrainRows, relative to `base`), counting visited
  /// entries into `work` — the batched join kernel. Per level, entry-list
  /// row ids are decoded kJoinBatch at a time: the level's check ops
  /// (Generator::CheckPair) run first, each comparing its column pair
  /// row by row into one survivor mask; the survivors are compressed into
  /// the level's Scratch batch slice, and only then do the bind ops touch
  /// the surviving rows — check-free levels alias the batch pointer straight
  /// into the entry list (zero copy). Descending a level leaves the
  /// parent's batch half-consumed, which is why every level owns its own
  /// survivor slice; the innermost level drains whole batches in one
  /// tight loop (DrainRows) that sets the head up once per batch and, per
  /// row, probes T's row for the head key in place, writing the head
  /// tuple only for a contribution that survives. Work accounting is per
  /// chunk (`work += chunk` on refill) and covers every decoded row, so
  /// `work` counts exactly the entries the join visits; survivor order is
  /// entry-list order, so head merges follow the row-at-a-time
  /// definition's sequence bit-for-bit. ⊗ and ⊕ run per surviving row through P::Times and
  /// Relation::Merge for every carrier. join_batched_rows_ counts the
  /// decoded rows (always equal to the work added).
  void ExecuteShard(const CompiledDisjunct& cd, const PreparedGens& prep,
                    Scratch& sc, Relation<P>* out, const Relation<P>* base,
                    uint64_t* work) const {
    for (const auto& [v, c] : cd.prebindings) sc.binding[v] = c;
    const std::size_t levels = cd.generators.size();
    if (levels == 0) {
      const DrainedHeadKey key =
          BeginDrain(cd, sc, [](int) -> const ConstId* { return nullptr; });
      if (ResidualHolds(cd, sc)) {
        EmitRow(cd, sc, key, P::One(), P::Bottom(), out, base);
      }
      return;
    }
    const RowIdList& driver = *prep.level0;
    if (driver.empty()) return;
    sc.entries[0] = &driver;
    sc.next[0] = 0;
    sc.batch_pos[0] = 0;
    sc.batch_len[0] = 0;

    auto enter_level = [&](std::size_t lvl) {
      const Generator& gen = cd.generators[lvl];
      Tuple& key = sc.keys[lvl];
      for (std::size_t i = 0; i < gen.key_sources.size(); ++i) {
        const ValueSource& s = gen.key_sources[i];
        key[i] = s.var >= 0 ? sc.binding[s.var] : s.constant;
      }
      if (gen.point) {
        RowIdList& hit = sc.point_rows[lvl];
        hit.clear();
        const uint32_t row = gen.is_bool ? prep.bool_rel[lvl]->LiveRow(key)
                                         : prep.pops_rel[lvl]->LiveRow(key);
        if (row != kNoRow) hit.push_back(row);
        sc.entries[lvl] = &hit;
      } else {
        CountProbe(prep.repr[lvl]);
        if (gen.is_bool) {
          sc.entries[lvl] = &prep.bool_idx[lvl]->Lookup(key);
        } else {
          sc.entries[lvl] = &prep.pops_idx[lvl]->Lookup(key);
        }
      }
      sc.next[lvl] = 0;
      sc.batch_pos[lvl] = 0;
      sc.batch_len[lvl] = 0;
    };

    // Refills level g's survivor batch from its entry list; returns
    // false when the list is exhausted without survivors (pop a level).
    // Chunks that fail every check refill again immediately, so one
    // call always leaves either a non-empty batch or a spent cursor.
    auto refill = [&](std::size_t g) {
      const Generator& gen = cd.generators[g];
      const RowIdList& entries = *sc.entries[g];
      const std::size_t limit = entries.size();
      uint32_t filled = 0;
      while (filled == 0 && sc.next[g] < limit) {
        const uint32_t chunk = static_cast<uint32_t>(
            std::min<std::size_t>(kJoinBatch, limit - sc.next[g]));
        const uint32_t* rows = entries.data() + sc.next[g];
        sc.next[g] += chunk;
        *work += chunk;
        join_batched_rows_ += chunk;
        if (gen.check_pairs.empty()) {
          sc.batch[g] = rows;
          filled = chunk;
          continue;
        }
        uint32_t mask = (1u << chunk) - 1;  // chunk <= kJoinBatch < 32
        for (const typename Generator::CheckPair& cp : gen.check_pairs) {
          const ConstId* ca;
          const ConstId* cb;
          if (gen.is_bool) {
            ca = prep.bool_rel[g]->column_data(cp.pos);
            cb = prep.bool_rel[g]->column_data(cp.first_pos);
          } else {
            ca = prep.pops_rel[g]->column_data(cp.pos);
            cb = prep.pops_rel[g]->column_data(cp.first_pos);
          }
          uint32_t m = 0;
          for (uint32_t i = 0; i < chunk; ++i) {
            m |= static_cast<uint32_t>(ca[rows[i]] == cb[rows[i]]) << i;
          }
          mask &= m;
          if (mask == 0) break;
        }
        // Compress: survivors in ascending lane (= entry-list) order.
        uint32_t* surv = sc.survivors.data() + g * kJoinBatch;
        for (; mask != 0; mask &= mask - 1) {
          surv[filled++] = rows[std::countr_zero(mask)];
        }
        sc.batch[g] = surv;
      }
      sc.batch_len[g] = filled;
      sc.batch_pos[g] = 0;
      return filled != 0;
    };

    // Drains one innermost-level row batch (DrainRows) — no state-machine
    // dispatch per row.
    auto drain = [&](std::size_t g, const uint32_t* rows, std::size_t n) {
      // A compile-time-false residual can never emit: the callers have
      // already counted this batch's work/decode (and the descent above
      // kept the probe trace), so re-grounding the residual per row is
      // pure waste — skip the drain body entirely.
      if (cd.always_false) return;
      const Generator& gen = cd.generators[g];
      if (gen.is_bool) {
        DrainRows(cd, gen, *prep.bool_rel[g], rows, n, sc.acc[g], sc, out,
                  base);
      } else {
        DrainRows(cd, gen, *prep.pops_rel[g], rows, n, sc.acc[g], sc, out,
                  base);
      }
    };

    sc.acc[0] = P::One();
    std::size_t g = 0;
    for (;;) {
      const Generator& gen = cd.generators[g];
      if (g + 1 == levels) {
        // Innermost level: everything it produces is consumed here, so a
        // check-free list needs no survivor buffer at all — the whole
        // remaining range is one batch. Check-bearing lists go through
        // the refill/compress cycle batch by batch.
        if (gen.check_pairs.empty()) {
          const RowIdList& entries = *sc.entries[g];
          const std::size_t n = entries.size() - sc.next[g];
          drain(g, entries.data() + sc.next[g], n);
          sc.next[g] = entries.size();
          *work += n;
          join_batched_rows_ += n;
        } else {
          while (refill(g)) {
            drain(g, sc.batch[g], sc.batch_len[g]);
            sc.batch_pos[g] = sc.batch_len[g];
          }
        }
        if (g == 0) break;
        --g;
        continue;
      }
      // Mid level: take one survivor, bind, accumulate, descend.
      if (sc.batch_pos[g] == sc.batch_len[g] && !refill(g)) {
        if (g == 0) break;
        --g;
        continue;
      }
      const uint32_t row = sc.batch[g][sc.batch_pos[g]];
      ++sc.batch_pos[g];
      if (gen.is_bool) {
        const Relation<BoolS>& rel = *prep.bool_rel[g];
        for (const BindOp& op : gen.bind_ops) {
          sc.binding[op.var] = rel.Cell(row, op.pos);
        }
        sc.acc[g + 1] = sc.acc[g];
      } else {
        const Relation<P>& rel = *prep.pops_rel[g];
        for (const BindOp& op : gen.bind_ops) {
          sc.binding[op.var] = rel.Cell(row, op.pos);
        }
        sc.acc[g + 1] = P::Times(sc.acc[g], rel.ValueAt(row));
      }
      ++g;
      enter_level(g);
    }
  }

  const Program* prog_;
  const EdbInstance<P>* edb_;
  RelianceGroups reliance_;  ///< computed before Compile() (group maps)
  std::vector<CompiledRule> compiled_;
  std::vector<Schedule> group_schedules_;  ///< SemiNaive's, per group
  Schedule program_schedule_;              ///< the Update cascades'
  /// Per predicate: whether some disjunct has an atom of it after another
  /// EDB atom — the only place an EDB cross term reads a changed
  /// predicate's pre-mutation snapshot. The Update cascades copy the
  /// snapshot only for these.
  std::vector<bool> reads_snapshot_;
  // Mutable: evaluation entry points are const, but memoizing indexes,
  // counting builds, and reusing evaluation buffers are all invisible to
  // callers — and why one Engine object is not shareable across threads
  // (see the class comment).
  mutable std::vector<Scratch> scratch_;  ///< one per forward/planned
                                          ///< program
  /// Update's planned programs, num_plan_slots_ of them once the first
  /// Update plans one (CompiledDisjunct::plan_slot); empty before that.
  mutable std::vector<PlannedProgram> planned_;
  int num_plan_slots_ = 0;
  mutable std::vector<PreparedGens> prepared_;  ///< parallel to scratch_
  mutable IndexCache<P> pops_cache_;
  mutable IndexCache<BoolS> bool_cache_;
  mutable uint64_t idb_index_builds_ = 0;  ///< cache builds for IDB inputs
  mutable uint64_t idb_index_hits_ = 0;    ///< cache hits for IDB inputs
  mutable uint64_t hash_probes_ = 0;    ///< hash-map index lookups
  mutable uint64_t direct_probes_ = 0;  ///< direct-array index lookups
  mutable uint64_t join_batched_rows_ = 0;  ///< rows through batched join
  mutable uint64_t edb_index_scan_rows_ = 0;  ///< EDB build-scan rows
  mutable uint64_t group_iterations_ = 0;  ///< SemiNaive: local rounds run
  mutable uint64_t rules_skipped_ = 0;     ///< SemiNaive: triggered skips
};

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_ENGINE_H_
