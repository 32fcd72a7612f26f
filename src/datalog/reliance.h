// Rule-level reliance analysis for triggered-rule scheduling: which rules
// feed which, condensed into topologically ordered SCC groups.
//
// The reliance graph has one node per rule and an edge r → s whenever the
// head predicate of r occurs as a body (POPS) atom of s — r's output can
// trigger s. Condensing it with the Tarjan utility (src/core/scc.h)
// yields *rule groups*: maximal sets of mutually recursive rules, ordered
// so every producer group precedes its consumers. Engine::SemiNaive runs
// one LOCAL fixpoint per group in this order; inside a group only rules
// whose body predicates actually received a delta are re-evaluated.
//
// This is the classical refinement of predicate-level stratification:
// two rules with the same head predicate may land in different groups
// (e.g. a non-recursive base rule and a recursive step rule for the same
// IDB), which is exactly what lets the scheduler stop re-sweeping base
// rules once their one-shot contribution is in. The engine has no other
// SCC scheduler. The
// design follows VLog's SemiNaiverOrdered/PositiveGroup reliance model,
// restricted to positive reliances (this engine has no existential rules,
// so there are no restraint edges).
#ifndef DATALOGO_DATALOG_RELIANCE_H_
#define DATALOGO_DATALOG_RELIANCE_H_

#include <algorithm>
#include <vector>

#include "src/core/scc.h"
#include "src/datalog/ast.h"

namespace datalogo {

/// The condensed rule-reliance structure of one program. All vectors are
/// deterministic functions of the program (no iteration-order hazards):
/// groups are listed in execution (producers-first topological) order,
/// rules within a group and predicates within a list ascend by id.
struct RelianceGroups {
  /// Reliance adjacency over rules: rule_adj[r] = rules s with an edge
  /// r → s (head(r) occurs in a body of s), ascending, deduplicated.
  std::vector<std::vector<int>> rule_adj;
  /// rule → index into `groups`.
  std::vector<int> group_of_rule;
  /// Rule ids per group, in execution order (group 0 runs first); every
  /// reliance edge r → s satisfies group_of_rule[r] <= group_of_rule[s].
  std::vector<std::vector<int>> groups;
  /// Distinct head predicates per group, ascending. These are the only
  /// predicates that can receive deltas while the group's local fixpoint
  /// runs; every other predicate a group reads is already converged.
  std::vector<std::vector<int>> group_heads;
  /// Per rule: distinct body IDB predicates across all disjuncts,
  /// ascending — the predicates whose deltas can trigger the rule.
  std::vector<std::vector<int>> rule_body_idb;

  int num_groups() const { return static_cast<int>(groups.size()); }
};

/// Builds the reliance graph of `prog` and condenses it into ordered
/// rule groups. O(rules × atoms + edges); rule counts are tiny relative
/// to data, so this runs once per Engine construction.
inline RelianceGroups BuildRelianceGroups(const Program& prog) {
  const int num_rules = static_cast<int>(prog.rules().size());
  RelianceGroups out;
  out.rule_adj.assign(num_rules, {});
  out.rule_body_idb.assign(num_rules, {});

  // head pred → defining rules (a predicate may be defined by several
  // rules, possibly ending up in different groups).
  std::vector<std::vector<int>> defs(prog.num_predicates());
  for (int r = 0; r < num_rules; ++r) {
    defs[prog.rules()[r].head.pred].push_back(r);
  }

  for (int s = 0; s < num_rules; ++s) {
    std::vector<int>& body = out.rule_body_idb[s];
    for (const SumProduct& sp : prog.rules()[s].disjuncts) {
      for (const Atom& a : sp.atoms) {
        if (prog.predicate(a.pred).kind == PredKind::kIdb) {
          body.push_back(a.pred);
        }
      }
    }
    std::sort(body.begin(), body.end());
    body.erase(std::unique(body.begin(), body.end()), body.end());
    for (int pred : body) {
      for (int r : defs[pred]) out.rule_adj[r].push_back(s);
    }
  }
  for (std::vector<int>& succ : out.rule_adj) {
    std::sort(succ.begin(), succ.end());
    succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
  }

  Tarjan tarjan(out.rule_adj);
  tarjan.Run();
  const std::vector<int>& comp = tarjan.components();
  const int num_comps = tarjan.num_components();

  // Tarjan numbers components in reverse topological order (scc.h), so
  // execution order — producers first — is decreasing component id.
  out.group_of_rule.assign(num_rules, -1);
  out.groups.assign(num_comps, {});
  for (int r = 0; r < num_rules; ++r) {
    const int g = num_comps - 1 - comp[r];
    out.group_of_rule[r] = g;
    out.groups[g].push_back(r);
  }
  for (std::vector<int>& rules : out.groups) {
    std::sort(rules.begin(), rules.end());
  }

  out.group_heads.assign(num_comps, {});
  for (int g = 0; g < num_comps; ++g) {
    std::vector<int>& heads = out.group_heads[g];
    for (int r : out.groups[g]) heads.push_back(prog.rules()[r].head.pred);
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
  }
  return out;
}

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_RELIANCE_H_
