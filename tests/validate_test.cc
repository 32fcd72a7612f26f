// Program validation: vocabulary discipline and range restriction.
#include <gtest/gtest.h>

#include "src/datalog/parser.h"
#include "src/datalog/validate.h"

namespace datalogo {
namespace {

Status ValidateText(const char* text) {
  Domain dom;
  auto r = ParseProgram(text, &dom);
  if (!r.ok()) return r.status();
  return ValidateProgram(r.value());
}

TEST(Validate, AcceptsPaperPrograms) {
  EXPECT_TRUE(ValidateText(
                  "T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).")
                  .ok());
  EXPECT_TRUE(ValidateText("L(X) :- [X = a] ; L(Z) * E(Z, X).").ok());
  EXPECT_TRUE(
      ValidateText("bedb E/2. T(X) :- C(X) ; { T(Y) | E(X, Y) }.").ok());
  EXPECT_TRUE(ValidateText("bedb E/2. W(X) :- { !W(Y) | E(X, Y) }.").ok());
}

TEST(Validate, NegatedProductAtoms) {
  // Not applies to ground IDB atoms only: a negated POPS EDB atom is
  // rejected outright.
  Domain dom;
  auto edb = ParseProgram("edb E/2. edb F/2. T(X,Y) :- E(X,Y) * !F(X,Y).",
                          &dom);
  ASSERT_TRUE(edb.ok());
  EXPECT_EQ(ValidateProgram(edb.value()).code(), Code::kInvalidArgument);
  EXPECT_EQ(ValidateForEngine(edb.value()).code(), Code::kInvalidArgument);
  // Win-move's negated IDB atom is valid for the grounded engine, but the
  // relational engine cannot evaluate it.
  auto win_move = ParseProgram("bedb E/2. W(X) :- { !W(Y) | E(X, Y) }.", &dom);
  ASSERT_TRUE(win_move.ok());
  EXPECT_TRUE(ValidateProgram(win_move.value()).ok());
  EXPECT_EQ(ValidateForEngine(win_move.value()).code(), Code::kUnsupported);
  auto tc = ParseProgram("T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).", &dom);
  ASSERT_TRUE(tc.ok());
  EXPECT_TRUE(ValidateForEngine(tc.value()).ok());
}

TEST(Validate, RejectsEdbHead) {
  EXPECT_FALSE(ValidateText("edb E/2. E(X,Y) :- E(Y,X).").ok());
}

TEST(Validate, RejectsBoolEdbHead) {
  EXPECT_FALSE(ValidateText("bedb B/1. B(X) :- C(X).").ok());
}

TEST(Validate, RejectsBoolEdbInProduct) {
  EXPECT_FALSE(ValidateText("bedb B/1. T(X) :- B(X) * C(X).").ok());
}

TEST(Validate, RejectsPopsEdbInCondition) {
  EXPECT_FALSE(ValidateText("edb C/1. T(X) :- { D(X) | C(X) }.").ok());
}

TEST(Validate, RejectsUnboundHeadVariable) {
  // Y appears only in the head.
  EXPECT_FALSE(ValidateText("T(X, Y) :- E(X, X).").ok());
}

TEST(Validate, RejectsUnboundComparisonVariable) {
  // Z is only mentioned in a non-equality comparison: not range-restricted.
  EXPECT_FALSE(ValidateText("T(X) :- { E(X, X) | Z < 3 }.").ok());
}

TEST(Validate, AcceptsEqualityChainBinding) {
  // Y is bound through Y = Z, Z = a.
  EXPECT_TRUE(
      ValidateText("T(Y) :- { E(X, X) | Y = Z, Z = a }.").ok());
}

TEST(Validate, HeadVariableMustBeBoundInEveryDisjunct) {
  // X bound in the first disjunct but not the second.
  EXPECT_FALSE(ValidateText("T(X) :- E(X, X) ; D(Y, Y).").ok());
}

TEST(Validate, BoundByPositiveBoolAtom) {
  EXPECT_TRUE(ValidateText("bedb B/1. T(X) :- { C(Y) | B(X), B(Y) }.").ok());
}

TEST(Validate, NegatedBoolAtomDoesNotBind) {
  EXPECT_FALSE(ValidateText("bedb B/1. T(X) :- { 1 | !B(X) }.").ok());
}

}  // namespace
}  // namespace datalogo
