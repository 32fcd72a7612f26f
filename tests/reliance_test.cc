// Tests for the rule-reliance analysis (src/datalog/reliance.h): group
// membership, topological execution order, recursion and the
// triggered-set inputs (rule_body_idb) on the program shapes the ordered
// scheduler has to get right — linear chains, diamonds, mutual recursion,
// several rules sharing one head predicate, and BEDB-only bodies.
#include "src/datalog/reliance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/datalog/ast.h"
#include "src/datalog/parser.h"
#include "src/relation/domain.h"

namespace datalogo {
namespace {

Program Parse(const std::string& text, Domain* dom) {
  auto prog = ParseProgram(text, dom);
  EXPECT_TRUE(prog.ok()) << prog.status().message();
  return std::move(prog).value();
}

// Every reliance edge must point forward (or stay within a group), rules
// must partition across groups, and group_heads must cover the head
// predicates of the group's rules — the structural invariants the
// scheduler's correctness argument leans on.
void CheckInvariants(const Program& prog, const RelianceGroups& rg) {
  const int num_rules = static_cast<int>(prog.rules().size());
  std::vector<int> seen(num_rules, 0);
  for (int g = 0; g < rg.num_groups(); ++g) {
    for (int r : rg.groups[g]) {
      EXPECT_EQ(rg.group_of_rule[r], g);
      ++seen[r];
      const int head = prog.rules()[r].head.pred;
      EXPECT_TRUE(std::binary_search(rg.group_heads[g].begin(),
                                     rg.group_heads[g].end(), head));
    }
  }
  for (int r = 0; r < num_rules; ++r) {
    EXPECT_EQ(seen[r], 1) << "rule " << r << " not in exactly one group";
    for (int s : rg.rule_adj[r]) {
      EXPECT_LE(rg.group_of_rule[r], rg.group_of_rule[s])
          << "reliance edge " << r << " -> " << s << " points backwards";
    }
  }
}

/// Whether group g has an internal reliance edge (a self-recursive rule
/// or a mutual-recursion cycle) — what lets a δ of the group's own heads
/// retrigger one of its rules.
bool Recursive(const RelianceGroups& rg, int g) {
  for (int r : rg.groups[g]) {
    for (int s : rg.rule_adj[r]) {
      if (rg.group_of_rule[s] == g) return true;
    }
  }
  return false;
}

TEST(Reliance, LinearChainGetsOneGroupPerRuleInOrder) {
  Domain dom;
  Program prog = Parse(R"(
    edb E/2.
    idb A/2. idb B/2. idb C/2.
    A(X,Y) :- E(X,Y).
    B(X,Y) :- A(X,Z)*E(Z,Y).
    C(X,Y) :- B(X,Z)*E(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 3);
  // One singleton group per rule, producers first, none recursive.
  EXPECT_EQ(rg.groups[0], std::vector<int>{0});
  EXPECT_EQ(rg.groups[1], std::vector<int>{1});
  EXPECT_EQ(rg.groups[2], std::vector<int>{2});
  for (int g = 0; g < 3; ++g) EXPECT_FALSE(Recursive(rg, g));
  // Triggered-set inputs: the A rule reads no IDB, B reads A, C reads B.
  EXPECT_TRUE(rg.rule_body_idb[0].empty());
  EXPECT_EQ(rg.rule_body_idb[1], std::vector<int>{prog.FindPredicate("A")});
  EXPECT_EQ(rg.rule_body_idb[2], std::vector<int>{prog.FindPredicate("B")});
}

TEST(Reliance, DiamondKeepsBothBranchesBetweenSourceAndSink) {
  Domain dom;
  Program prog = Parse(R"(
    edb E/2. edb F/2.
    idb S/2. idb L/2. idb R/2. idb T/2.
    S(X,Y) :- E(X,Y).
    L(X,Y) :- S(X,Z)*E(Z,Y).
    R(X,Y) :- S(X,Z)*F(Z,Y).
    T(X,Y) :- L(X,Z)*R(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 4);
  // Source strictly before both branches, both branches before the sink;
  // the order between the L and R branches is unconstrained by the
  // diamond and pinned only by the deterministic numbering.
  EXPECT_LT(rg.group_of_rule[0], rg.group_of_rule[1]);
  EXPECT_LT(rg.group_of_rule[0], rg.group_of_rule[2]);
  EXPECT_LT(rg.group_of_rule[1], rg.group_of_rule[3]);
  EXPECT_LT(rg.group_of_rule[2], rg.group_of_rule[3]);
}

TEST(Reliance, MutualRecursionCollapsesIntoOneRecursiveGroup) {
  Domain dom;
  Program prog = Parse(R"(
    edb E/2. edb F/2.
    idb P/2. idb Q/2.
    P(X,Y) :- E(X,Y).
    P(X,Y) :- Q(X,Z)*E(Z,Y).
    Q(X,Y) :- P(X,Z)*F(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 2);
  // The base rule feeds the cycle but is not part of it.
  EXPECT_EQ(rg.groups[0], std::vector<int>{0});
  EXPECT_FALSE(Recursive(rg, 0));
  EXPECT_EQ(rg.groups[1], (std::vector<int>{1, 2}));
  EXPECT_TRUE(Recursive(rg, 1));
  // The cycle group's heads are both predicates, ascending.
  std::vector<int> expect = {prog.FindPredicate("P"),
                             prog.FindPredicate("Q")};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(rg.group_heads[1], expect);
}

TEST(Reliance, SelfRecursiveSingletonIsMarkedRecursive) {
  Domain dom;
  Program prog = Parse(R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; T(X,Z)*E(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 1);
  EXPECT_TRUE(Recursive(rg, 0));
  EXPECT_EQ(rg.rule_body_idb[0], std::vector<int>{prog.FindPredicate("T")});
}

TEST(Reliance, MultiHeadRulesSplitBaseFromRecursiveStep) {
  // Two rules define T: the base rule is NOT in the recursive group —
  // exactly the refinement over predicate-level strata that lets the
  // scheduler stop re-sweeping base rules once their one-shot
  // contribution is in.
  Domain dom;
  Program prog = Parse(R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y).
    T(X,Y) :- T(X,Z)*E(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 2);
  EXPECT_EQ(rg.groups[0], std::vector<int>{0});
  EXPECT_FALSE(Recursive(rg, 0));
  EXPECT_EQ(rg.groups[1], std::vector<int>{1});
  EXPECT_TRUE(Recursive(rg, 1));
  // Both groups share the head predicate T.
  EXPECT_EQ(rg.group_heads[0], rg.group_heads[1]);
}

TEST(Reliance, BedbOnlyBodiesCreateNoRelianceEdges) {
  // Boolean-EDB and EDB atoms never carry deltas: a rule reading only
  // those is a source — no incoming edges, empty rule_body_idb — even
  // when another rule reads its head.
  Domain dom;
  Program prog = Parse(R"(
    edb E/2.
    bedb Good/1.
    idb A/1. idb B/1.
    A(X) :- { E(X,X) | Good(X) }.
    B(X) :- A(X)*E(X,X).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  ASSERT_EQ(rg.num_groups(), 2);
  EXPECT_TRUE(rg.rule_body_idb[0].empty());
  EXPECT_TRUE(rg.rule_adj[1].empty());
  EXPECT_EQ(rg.rule_adj[0], std::vector<int>{1});
  EXPECT_FALSE(Recursive(rg, 0));
  EXPECT_FALSE(Recursive(rg, 1));
}

TEST(Reliance, DisjunctsContributeAllTheirBodyPredicates) {
  // rule_body_idb unions IDB reads across disjuncts, deduplicated and
  // ascending — the triggered check must see every disjunct's inputs.
  Domain dom;
  Program prog = Parse(R"(
    edb E/2. edb F/2.
    idb P/2. idb Q/2. idb R/2.
    P(X,Y) :- E(X,Y).
    Q(X,Y) :- F(X,Y).
    R(X,Y) :- P(X,Z)*E(Z,Y) ; Q(X,Z)*P(Z,Y).
  )",
                       &dom);
  RelianceGroups rg = BuildRelianceGroups(prog);
  CheckInvariants(prog, rg);
  std::vector<int> expect = {prog.FindPredicate("P"),
                             prog.FindPredicate("Q")};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(rg.rule_body_idb[2], expect);
}

}  // namespace
}  // namespace datalogo
