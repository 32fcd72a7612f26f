#include "src/datalog/validate.h"

#include <set>
#include <string>
#include <vector>

namespace datalogo {
namespace {

std::string Where(const Program& prog, const Rule& rule) {
  return "in rule '" + RuleToString(prog, rule) + "'";
}

void CollectVars(const Atom& a, std::set<int>* vars) {
  for (const Term& t : a.args) {
    if (t.IsVar()) vars->insert(t.var);
  }
}

}  // namespace

Status ValidateProgram(const Program& prog) {
  for (const Rule& rule : prog.rules()) {
    // Head discipline.
    if (prog.predicate(rule.head.pred).kind != PredKind::kIdb) {
      return InvalidArgument("head predicate '" +
                             prog.predicate(rule.head.pred).name +
                             "' is not an IDB " + Where(prog, rule));
    }
    std::set<int> head_vars;
    CollectVars(rule.head, &head_vars);

    for (const SumProduct& sp : rule.disjuncts) {
      // Vocabulary discipline.
      for (const Atom& a : sp.atoms) {
        if (prog.predicate(a.pred).kind == PredKind::kBoolEdb) {
          return InvalidArgument(
              "Boolean EDB '" + prog.predicate(a.pred).name +
              "' used as a product atom; move it into a condition " +
              Where(prog, rule));
        }
        if (a.negated && prog.predicate(a.pred).kind == PredKind::kEdb) {
          return InvalidArgument("negated EDB atom '" +
                                 prog.predicate(a.pred).name + "' " +
                                 Where(prog, rule));
        }
      }
      for (const Condition& c : sp.conditions) {
        if (c.kind == Condition::Kind::kCompare) continue;
        if (prog.predicate(c.atom.pred).kind != PredKind::kBoolEdb) {
          return InvalidArgument(
              "condition atom '" + prog.predicate(c.atom.pred).name +
              "' is not a Boolean EDB " + Where(prog, rule));
        }
      }

      // Range restriction: compute the bound variable set to fixpoint.
      std::set<int> bound;
      for (const Atom& a : sp.atoms) CollectVars(a, &bound);
      for (const Condition& c : sp.conditions) {
        if (c.kind == Condition::Kind::kBoolAtom) {
          CollectVars(c.atom, &bound);
        }
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (const Condition& c : sp.conditions) {
          if (c.kind != Condition::Kind::kCompare || c.op != CmpOp::kEq) {
            continue;
          }
          auto bind = [&](const Term& a, const Term& b) {
            // a = b with b grounded (constant or bound) binds a.
            if (!a.IsVar() || bound.count(a.var)) return;
            if (!b.IsVar() || bound.count(b.var)) {
              bound.insert(a.var);
              changed = true;
            }
          };
          bind(c.lhs, c.rhs);
          bind(c.rhs, c.lhs);
        }
      }

      // Every variable used in this disjunct plus every head variable must
      // be bound.
      std::set<int> used = head_vars;
      for (const Atom& a : sp.atoms) CollectVars(a, &used);
      for (const Condition& c : sp.conditions) {
        if (c.kind == Condition::Kind::kCompare) {
          if (c.lhs.IsVar()) used.insert(c.lhs.var);
          if (c.rhs.IsVar()) used.insert(c.rhs.var);
        } else {
          CollectVars(c.atom, &used);
        }
      }
      for (int v : used) {
        if (!bound.count(v)) {
          return InvalidArgument("variable '" + rule.var_names[v] +
                                 "' is not range-restricted " +
                                 Where(prog, rule));
        }
      }
    }
  }
  return Status::Ok();
}

Status ValidateForEngine(const Program& prog) {
  Status s = ValidateProgram(prog);
  if (!s.ok()) return s;
  for (const Rule& rule : prog.rules()) {
    for (const SumProduct& sp : rule.disjuncts) {
      for (const Atom& a : sp.atoms) {
        if (a.negated) {
          return Unsupported("negated atom '" +
                             prog.predicate(a.pred).name +
                             "' needs the grounded engine " +
                             Where(prog, rule));
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace datalogo
