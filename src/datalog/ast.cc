#include "src/datalog/ast.h"

#include <sstream>

#include "src/core/check.h"

namespace datalogo {

int Program::AddPredicate(const std::string& name, int arity, PredKind kind,
                          bool auto_declared) {
  int existing = FindPredicate(name);
  if (existing >= 0) {
    DLO_CHECK_MSG(preds_[existing].arity == arity,
                  "predicate re-declared with different arity");
    return existing;
  }
  preds_.push_back(Predicate{name, arity, kind});
  auto_declared_.push_back(auto_declared);
  return static_cast<int>(preds_.size()) - 1;
}

void Program::UpgradeToIdb(int pred) {
  DLO_CHECK(pred >= 0 && pred < static_cast<int>(preds_.size()));
  if (preds_[pred].kind == PredKind::kEdb && auto_declared_[pred]) {
    preds_[pred].kind = PredKind::kIdb;
  }
}

int Program::FindPredicate(const std::string& name) const {
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

const Predicate& Program::predicate(int id) const {
  DLO_CHECK(id >= 0 && id < static_cast<int>(preds_.size()));
  return preds_[id];
}

std::vector<int> Program::IdbPredicates() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < preds_.size(); ++i) {
    if (preds_[i].kind == PredKind::kIdb) out.push_back(static_cast<int>(i));
  }
  return out;
}

bool Program::IsLinear() const {
  for (const Rule& rule : rules_) {
    for (const SumProduct& sp : rule.disjuncts) {
      int idb_count = 0;
      for (const Atom& a : sp.atoms) {
        if (predicate(a.pred).kind == PredKind::kIdb) ++idb_count;
      }
      if (idb_count > 1) return false;
    }
  }
  return true;
}

namespace {

std::string TermToString(const Program& prog, const Rule& rule,
                         const Term& t) {
  if (t.IsVar()) {
    if (t.var >= 0 && t.var < static_cast<int>(rule.var_names.size())) {
      return rule.var_names[t.var];
    }
    std::string name = "V";  // `+=`: GCC 12's -Wrestrict misfires on `+`
    name += std::to_string(t.var);
    return name;
  }
  return prog.domain()->ToString(t.constant);
}

std::string AtomToString(const Program& prog, const Rule& rule,
                         const Atom& a) {
  std::ostringstream os;
  if (a.negated) os << "!";
  os << prog.predicate(a.pred).name << "(";
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    if (i) os << ",";
    os << TermToString(prog, rule, a.args[i]);
  }
  os << ")";
  return os.str();
}

const char* CmpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

std::string ConditionToString(const Program& prog, const Rule& rule,
                              const Condition& c) {
  switch (c.kind) {
    case Condition::Kind::kBoolAtom:
      return AtomToString(prog, rule, c.atom);
    case Condition::Kind::kNegBoolAtom: {
      std::string text = "!";  // `+=`: as in TermToString
      text += AtomToString(prog, rule, c.atom);
      return text;
    }
    case Condition::Kind::kCompare:
      return TermToString(prog, rule, c.lhs) + " " + CmpToString(c.op) + " " +
             TermToString(prog, rule, c.rhs);
  }
  return "?";
}

}  // namespace

std::string RuleToString(const Program& prog, const Rule& rule) {
  std::ostringstream os;
  os << AtomToString(prog, rule, rule.head) << " :- ";
  for (std::size_t d = 0; d < rule.disjuncts.size(); ++d) {
    if (d) os << " ; ";
    const SumProduct& sp = rule.disjuncts[d];
    bool braces = !sp.conditions.empty();
    if (braces) os << "{ ";
    if (sp.atoms.empty()) {
      os << "1";
    } else {
      for (std::size_t i = 0; i < sp.atoms.size(); ++i) {
        if (i) os << " * ";
        os << AtomToString(prog, rule, sp.atoms[i]);
      }
    }
    if (braces) {
      os << " | ";
      for (std::size_t i = 0; i < sp.conditions.size(); ++i) {
        if (i) os << ", ";
        os << ConditionToString(prog, rule, sp.conditions[i]);
      }
      os << " }";
    }
  }
  os << ".";
  return os.str();
}

std::string Program::ToString() const {
  std::ostringstream os;
  for (const Predicate& p : preds_) {
    const char* kw = p.kind == PredKind::kEdb
                         ? "edb"
                         : (p.kind == PredKind::kBoolEdb ? "bedb" : "idb");
    os << kw << " " << p.name << "/" << p.arity << ".\n";
  }
  for (const Rule& r : rules_) {
    os << RuleToString(*this, r) << "\n";
  }
  return os.str();
}

}  // namespace datalogo
