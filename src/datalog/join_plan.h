// Greedy join ordering for one sum-product, from the variables bound
// before it and the live row counts of the relations it reads — the order
// every planned program of Engine::Update joins a rule body in: DRed's
// re-derive programs (head bound, driven by the pruned head tuples) and
// the EDB cross-term seeds (nothing but the prebindings bound, so the
// few Δ rows of the changed occurrence normally go first).
#ifndef DATALOGO_DATALOG_JOIN_PLAN_H_
#define DATALOGO_DATALOG_JOIN_PLAN_H_

#include <cstddef>
#include <tuple>
#include <vector>

#include "src/datalog/ast.h"

namespace datalogo {

/// One step of a join order: a POPS atom (an index into SumProduct::atoms)
/// or a positive Boolean condition atom (an index into
/// SumProduct::conditions).
struct JoinStep {
  bool is_bool = false;
  int index = 0;
  bool operator==(const JoinStep&) const = default;
};

/// Orders the POPS atoms and positive Boolean condition atoms of `sp`,
/// given the rule variables `bound` before the first step. Each step takes
/// the candidate that is fully bound, else the one with the most bound
/// argument positions (constants count as bound); ties go to fewer live
/// rows (`atom_rows[i]` for atom i, `cond_rows[j]` for condition j), then
/// to source order, POPS atoms before conditions.
///
/// ⊗ is applied in join order. It is commutative, so a body of at most two
/// POPS atoms may be reordered freely: One ⊗ a ⊗ b and One ⊗ b ⊗ a are the
/// same bits even in IEEE arithmetic. Reassociating three or more factors
/// is not (Trop's + rounds), so longer bodies keep their POPS atoms in
/// source order and only the Boolean atoms, which carry no value, move.
inline std::vector<JoinStep> GreedyJoinOrder(
    const SumProduct& sp, std::vector<bool> bound,
    const std::vector<std::size_t>& atom_rows,
    const std::vector<std::size_t>& cond_rows) {
  const std::size_t num_atoms = sp.atoms.size();
  const bool reorder_pops = num_atoms <= 2;
  std::vector<bool> placed_atom(num_atoms, false);
  std::vector<bool> placed_cond(sp.conditions.size(), false);
  std::vector<JoinStep> order;
  for (;;) {
    // Keeps the candidate with the smallest rank tuple.
    bool found = false;
    JoinStep best;
    std::tuple<bool, long, std::size_t, std::size_t> best_rank;
    auto consider = [&](JoinStep step, const Atom& a, std::size_t rows,
                        std::size_t source_order) {
      long bound_positions = 0;
      for (const Term& t : a.args) {
        if (!t.IsVar() || bound[t.var]) ++bound_positions;
      }
      const bool full = bound_positions == static_cast<long>(a.args.size());
      const auto rank =
          std::make_tuple(!full, -bound_positions, rows, source_order);
      if (!found || rank < best_rank) {
        found = true;
        best = step;
        best_rank = rank;
      }
    };
    for (std::size_t i = 0; i < num_atoms; ++i) {
      if (placed_atom[i]) continue;
      consider(JoinStep{false, static_cast<int>(i)}, sp.atoms[i],
               atom_rows[i], i);
      if (!reorder_pops) break;  // only the first unplaced one may go next
    }
    for (std::size_t j = 0; j < sp.conditions.size(); ++j) {
      const Condition& c = sp.conditions[j];
      if (placed_cond[j] || c.kind != Condition::Kind::kBoolAtom) continue;
      consider(JoinStep{true, static_cast<int>(j)}, c.atom, cond_rows[j],
               num_atoms + j);
    }
    if (!found) return order;
    const Atom& a = best.is_bool ? sp.conditions[best.index].atom
                                 : sp.atoms[best.index];
    for (const Term& t : a.args) {
      if (t.IsVar()) bound[t.var] = true;
    }
    (best.is_bool ? placed_cond : placed_atom)[best.index] = true;
    order.push_back(best);
  }
}

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_JOIN_PLAN_H_
