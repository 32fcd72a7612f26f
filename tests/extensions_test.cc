// Sec. 4.5 extensions: case statements, reliance-scheduled evaluation of
// multi-group programs, and the Theorem 1.2 convergence advisor.
#include <gtest/gtest.h>

#include "src/datalog/advisor.h"
#include "src/datalogo.h"

namespace datalogo {
namespace {

TEST(CaseStatement, DesugarsWithGuardNegations) {
  Domain dom;
  auto prog = ParseProgram(R"(
    edb V/1.
    bedb Succ/2.
    idb W/1.
    W(I) :- case I = 0 : V(I) ; Succ(J, I) : W(J) * V(I).
  )",
                           &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Rule& rule = prog.value().rules()[0];
  ASSERT_EQ(rule.disjuncts.size(), 2u);
  // Branch 1: guard I = 0.
  ASSERT_EQ(rule.disjuncts[0].conditions.size(), 1u);
  EXPECT_EQ(rule.disjuncts[0].conditions[0].op, CmpOp::kEq);
  // Branch 2: Succ(J, I) AND ¬(I = 0).
  ASSERT_EQ(rule.disjuncts[1].conditions.size(), 2u);
  EXPECT_EQ(rule.disjuncts[1].conditions[0].kind,
            Condition::Kind::kBoolAtom);
  EXPECT_EQ(rule.disjuncts[1].conditions[1].op, CmpOp::kNe);
}

TEST(CaseStatement, PrefixSumSemanticsMatchPaper) {
  // The Sec. 4.5 prefix-sum program written WITH case syntax.
  Domain dom;
  auto prog = ParseProgram(R"(
    edb V/1.
    bedb Succ/2.
    idb W/1.
    W(I) :- case I = 0 : V(I) ; Succ(J, I) : W(J) * V(I).
  )",
                           &dom);
  ASSERT_TRUE(prog.ok());
  ASSERT_TRUE(ValidateProgram(prog.value()).ok());
  const int n = 10;
  EdbInstance<TropNatS> edb(prog.value());
  uint64_t total = 0;
  std::vector<uint64_t> prefix;
  for (int i = 0; i < n; ++i) {
    uint64_t v = (i * 5 + 2) % 7;
    edb.pops(prog.value().FindPredicate("V")).Set({dom.InternInt(i)}, v);
    total += v;
    prefix.push_back(total);
    if (i > 0) {
      edb.boolean(prog.value().FindPredicate("Succ"))
          .Set({dom.InternInt(i - 1), dom.InternInt(i)}, true);
    }
  }
  Engine<TropNatS> engine(prog.value(), edb);
  auto r = engine.Naive(100);
  ASSERT_TRUE(r.converged);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(
        r.idb.idb(prog.value().FindPredicate("W")).Get({dom.InternInt(i)}),
        prefix[i])
        << i;
  }
}

TEST(CaseStatement, ElseBranchNegatesAllGuards) {
  Domain dom;
  auto prog = ParseProgram(R"(
    edb V/1.
    idb W/1.
    W(I) :- case I = 0 : V(I) ; I = 1 : V(I) * V(I) ; else 1.
  )",
                           &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  const Rule& rule = prog.value().rules()[0];
  ASSERT_EQ(rule.disjuncts.size(), 3u);
  // else-branch: ¬(I=0) ∧ ¬(I=1), no guard of its own.
  ASSERT_EQ(rule.disjuncts[2].conditions.size(), 2u);
  EXPECT_EQ(rule.disjuncts[2].conditions[0].op, CmpOp::kNe);
  EXPECT_EQ(rule.disjuncts[2].conditions[1].op, CmpOp::kNe);
}

TEST(CaseStatement, CaseAsPredicateNameStillWorks) {
  Domain dom;
  auto prog = ParseProgram("T(X) :- case(X).", &dom);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();
  EXPECT_GE(prog.value().FindPredicate("case"), 0);
}

/// Reliance groups run producers first (reliance.h), which is all a
/// stratified evaluation would add: SemiNaive must reach Naive's fixpoint
/// on `text` over `g` with no more join work.
template <Pops P>
void ExpectRelianceScheduleMatchesNaive(const char* text, const Graph& g,
                                        auto&& lift) {
  Domain dom;
  auto prog = ParseProgram(text, &dom);
  ASSERT_TRUE(prog.ok());
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<P> edb(prog.value());
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.value().FindPredicate("E")));
  Engine<P> engine(prog.value(), edb);
  auto naive = engine.Naive(10000);
  auto semi = engine.SemiNaive(10000);
  ASSERT_TRUE(naive.converged && semi.converged);
  EXPECT_TRUE(semi.idb.Equals(naive.idb)) << P::kName;
  EXPECT_LE(semi.work, naive.work) << P::kName;
}

TEST(RelianceSchedule, ClosureBeforeProjectionMatchesNaive) {
  // T's closure group runs to its fixpoint before D's projection group.
  constexpr const char* kText = R"(
    edb E/2.
    idb T/2.
    idb D/1.
    T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
    D(X) :- T(v0, X).
  )";
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Graph g = RandomGraph(8, 18, seed);
    ExpectRelianceScheduleMatchesNaive<BoolS>(
        kText, g, [](const Edge&) { return true; });
    // ℕ counts paths, so it needs a DAG: keep the forward edges only.
    Graph dag(8);
    for (const Edge& e : g.edges()) {
      if (e.src < e.dst) dag.AddEdge(e.src, e.dst, e.weight);
    }
    ExpectRelianceScheduleMatchesNaive<NatS>(
        kText, dag, [](const Edge&) { return uint64_t{1}; });
  }
}

TEST(RelianceSchedule, DeepGroupChainMatchesNaive) {
  // A chain of recursive groups A → B → C: each converges once, before
  // its consumer starts, instead of rippling through the whole program.
  constexpr const char* kText = R"(
    edb E/2.
    idb A/2.
    idb B/2.
    idb C/2.
    A(X,Y) :- E(X,Y) ; A(X,Z) * E(Z,Y).
    B(X,Y) :- A(X,Y) ; B(X,Z) * A(Z,Y).
    C(X,Y) :- B(X,Y) ; C(X,Z) * B(Z,Y).
  )";
  Graph g(12);
  for (int i = 0; i + 1 < 12; ++i) g.AddEdge(i, i + 1, 1.0);
  ExpectRelianceScheduleMatchesNaive<BoolS>(kText, g,
                                            [](const Edge&) { return true; });
  ExpectRelianceScheduleMatchesNaive<NatS>(
      kText, g, [](const Edge&) { return uint64_t{1}; });
}

template <Pops P, typename F>
ConvergenceReport AdviseFor(const char* text, F&& lift) {
  Domain dom;
  auto prog = ParseProgram(text, &dom).value();
  Graph g = CycleGraph(4);
  std::vector<ConstId> ids = InternVertices(4, &dom);
  EdbInstance<P> edb(prog);
  LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
  auto grounded = GroundProgram<P>(prog, edb);
  return Advise(grounded);
}

constexpr const char* kTc = R"(
  edb E/2.
  idb T/2.
  T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
)";

TEST(Advisor, TheoremOneTwoVerdicts) {
  auto trop = AdviseFor<TropS>(kTc, [](const Edge& e) { return e.weight; });
  EXPECT_EQ(trop.verdict, ConvergenceVerdict::kPolynomialTime);
  EXPECT_TRUE(trop.recursive);
  EXPECT_TRUE(trop.linear);
  EXPECT_EQ(trop.bound, static_cast<uint64_t>(trop.num_vars));

  auto trop1 = AdviseFor<TropPS<1>>(
      kTc, [](const Edge& e) { return TropPS<1>::FromScalar(e.weight); });
  EXPECT_EQ(trop1.verdict, ConvergenceVerdict::kBoundedSteps);
  EXPECT_LT(trop1.bound, kBoundInf);

  TropEtaS::ScopedEta eta(3.0);
  auto trope = AdviseFor<TropEtaS>(
      kTc, [](const Edge& e) { return TropEtaS::FromScalar(e.weight); });
  EXPECT_EQ(trope.verdict, ConvergenceVerdict::kConverges);

  auto nat = AdviseFor<NatS>(
      kTc, [](const Edge& e) { return static_cast<uint64_t>(e.weight); });
  EXPECT_EQ(nat.verdict, ConvergenceVerdict::kMayDiverge);
}

TEST(Advisor, AcyclicGroundingIsAlwaysSafe) {
  // Even over the unstable N, a DAG grounding converges within N steps.
  Domain dom;
  auto prog = ParseProgram(kTc, &dom).value();
  Graph g = LayeredDag(3, 2, 0.9, 2);
  std::vector<ConstId> ids = InternVertices(g.num_vertices(), &dom);
  EdbInstance<NatS> edb(prog);
  LoadEdges<NatS>(g, ids,
                  [](const Edge&) { return static_cast<uint64_t>(1); },
                  &edb.pops(prog.FindPredicate("E")));
  auto grounded = GroundProgram<NatS>(prog, edb);
  auto report = Advise(grounded);
  EXPECT_FALSE(report.recursive);
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kPolynomialTime);
  // And the prediction is honest: it really converges within the bound.
  auto iter = grounded.NaiveIterate(static_cast<int>(report.bound) + 2);
  EXPECT_TRUE(iter.converged);
}

TEST(Advisor, LiftedRealsAlwaysConverge) {
  // Corollary 5.17 + trivial core: every program over R⊥ converges.
  using L = Lifted<RealS>;
  auto report =
      AdviseFor<L>(kTc, [](const Edge& e) { return L::Lift(e.weight); });
  EXPECT_EQ(report.verdict, ConvergenceVerdict::kPolynomialTime);
}

TEST(Advisor, VerdictNamesArePrintable) {
  EXPECT_STREQ(VerdictName(ConvergenceVerdict::kPolynomialTime),
               "POLYNOMIAL_TIME");
  EXPECT_STREQ(VerdictName(ConvergenceVerdict::kMayDiverge), "MAY_DIVERGE");
}

}  // namespace
}  // namespace datalogo
