// Basic unit tests for the individual POPS/semiring implementations.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/semiring/boolean.h"
#include "src/semiring/completed.h"
#include "src/semiring/core_semiring.h"
#include "src/semiring/lifted.h"
#include "src/semiring/naturals.h"
#include "src/semiring/powerset.h"
#include "src/semiring/product.h"
#include "src/semiring/reals.h"
#include "src/semiring/traits.h"
#include "src/semiring/tropical.h"

namespace datalogo {
namespace {

// Concept conformance (compile-time checks, spelled as static_asserts).
static_assert(Pops<BoolS>);
static_assert(Pops<NatS>);
static_assert(Pops<TropS>);
static_assert(Pops<TropNatS>);
static_assert(Pops<MaxPlusS>);
static_assert(Pops<ViterbiS>);
static_assert(Pops<FuzzyS>);
static_assert(Pops<RealPlusS>);
static_assert(PreSemiring<RealS>);
static_assert(Pops<Lifted<RealS>>);
static_assert(Pops<Completed<RealS>>);
static_assert(Pops<Powerset<NatS>>);
static_assert(NaturallyOrderedSemiring<BoolS>);
static_assert(NaturallyOrderedSemiring<TropS>);
static_assert(!NaturallyOrderedSemiring<Lifted<RealS>>);
static_assert(CompleteDistributiveDioid<BoolS>);
static_assert(CompleteDistributiveDioid<TropS>);
static_assert(CompleteDistributiveDioid<TropNatS>);
static_assert(!DioidPops<NatS>);

TEST(BoolSemiring, Operations) {
  EXPECT_EQ(BoolS::Plus(false, true), true);
  EXPECT_EQ(BoolS::Times(false, true), false);
  EXPECT_TRUE(BoolS::Leq(false, true));
  EXPECT_FALSE(BoolS::Leq(true, false));
  EXPECT_EQ(BoolS::Minus(true, false), true);
  EXPECT_EQ(BoolS::Minus(true, true), false);
}

TEST(NatSemiring, SaturatingArithmetic) {
  EXPECT_EQ(NatS::Plus(2, 3), 5u);
  EXPECT_EQ(NatS::Times(2, 3), 6u);
  EXPECT_EQ(NatS::Plus(NatS::kInf, 1), NatS::kInf);
  EXPECT_EQ(NatS::Times(NatS::kInf, 0), 0u);  // absorption survives ∞
  EXPECT_EQ(NatS::Plus(NatS::kInf - 1, 5), NatS::kInf);
  EXPECT_EQ(NatS::Times(uint64_t{1} << 40, uint64_t{1} << 40), NatS::kInf);
}

TEST(TropSemiring, MinPlus) {
  EXPECT_EQ(TropS::Plus(3.0, 5.0), 3.0);
  EXPECT_EQ(TropS::Times(3.0, 5.0), 8.0);
  EXPECT_EQ(TropS::Zero(), TropS::Inf());
  EXPECT_EQ(TropS::One(), 0.0);
  // Natural order is the REVERSE numeric order.
  EXPECT_TRUE(TropS::Leq(5.0, 3.0));
  EXPECT_FALSE(TropS::Leq(3.0, 5.0));
  EXPECT_TRUE(TropS::Leq(TropS::Inf(), 7.0));  // ∞ = ⊥ below everything
}

TEST(TropSemiring, MinusPerEquationSix) {
  // v ⊖ u = v if v < u else ∞ (Eq. 6).
  EXPECT_EQ(TropS::Minus(3.0, 5.0), 3.0);
  EXPECT_EQ(TropS::Minus(5.0, 3.0), TropS::Inf());
  EXPECT_EQ(TropS::Minus(5.0, 5.0), TropS::Inf());
  // ⊖ recovers: a ⊕ (b ⊖ a) = a ⊕ b when b ⊖ a participates.
  EXPECT_EQ(TropS::Plus(5.0, TropS::Minus(3.0, 5.0)), 3.0);
}

TEST(MaxPlusSemiring, Operations) {
  EXPECT_EQ(MaxPlusS::Plus(3.0, 5.0), 5.0);
  EXPECT_EQ(MaxPlusS::Times(3.0, 5.0), 8.0);
  EXPECT_EQ(MaxPlusS::Times(MaxPlusS::NegInf(), 5.0), MaxPlusS::NegInf());
}

TEST(ViterbiFuzzy, Operations) {
  EXPECT_EQ(ViterbiS::Plus(0.3, 0.5), 0.5);
  EXPECT_EQ(ViterbiS::Times(0.5, 0.5), 0.25);
  EXPECT_EQ(FuzzyS::Times(0.3, 0.5), 0.3);
  EXPECT_EQ(FuzzyS::Plus(0.3, 0.5), 0.5);
}

TEST(LiftedReals, StrictOperations) {
  using R = Lifted<RealS>;
  R::Value bot = R::Bottom();
  R::Value two = R::Lift(2.0);
  EXPECT_TRUE(R::Eq(R::Plus(two, bot), bot));   // x ⊕ ⊥ = ⊥
  EXPECT_TRUE(R::Eq(R::Times(two, bot), bot));  // x ⊗ ⊥ = ⊥
  EXPECT_TRUE(R::Eq(R::Times(R::Zero(), bot), bot));  // 0 ⊗ ⊥ = ⊥ ≠ 0
  EXPECT_TRUE(R::Leq(bot, two));
  EXPECT_FALSE(R::Leq(two, R::Lift(3.0)));  // flat order
  EXPECT_TRUE(R::Leq(two, two));
}

TEST(LiftedReals, CoreSemiringIsTrivial) {
  // R⊥+⊥ = {⊥} (Sec. 2.5.1): injecting anything yields ⊥.
  using R = Lifted<RealS>;
  using C = CoreSemiring<R>;
  EXPECT_TRUE(R::Eq(C::Inject(R::Lift(7.0)), R::Bottom()));
  EXPECT_TRUE(R::Eq(C::Zero(), R::Bottom()));
  EXPECT_TRUE(R::Eq(C::One(), R::Bottom()));
}

TEST(CompletedReals, TopAbsorbsAmongDefined) {
  using C = Completed<RealS>;
  C::Value bot = C::Bottom(), top = C::Top(), one = C::One();
  EXPECT_TRUE(C::Eq(C::Plus(one, top), top));
  EXPECT_TRUE(C::Eq(C::Plus(bot, top), bot));  // ⊥ beats ⊤
  EXPECT_TRUE(C::Eq(C::Times(top, bot), bot));
  EXPECT_TRUE(C::Leq(bot, one));
  EXPECT_TRUE(C::Leq(one, top));
  EXPECT_FALSE(C::Leq(top, one));
}

TEST(PowersetPops, ElementwiseImage) {
  using PS = Powerset<NatS>;
  PS::Value a = {1, 2};
  PS::Value b = {10};
  PS::Value sum = PS::Plus(a, b);
  EXPECT_EQ(sum, (PS::Value{11, 12}));
  PS::Value prod = PS::Times(a, b);
  EXPECT_EQ(prod, (PS::Value{10, 20}));
  EXPECT_TRUE(PS::Leq(PS::Bottom(), a));  // ∅ ⊆ everything
  EXPECT_TRUE(PS::Eq(PS::Times(a, PS::Bottom()), PS::Bottom()));  // strict
}

TEST(ProductPops, Componentwise) {
  using PP = ProductPops<BoolS, TropS>;
  PP::Value a = {true, 3.0};
  PP::Value b = {false, 5.0};
  PP::Value sum = PP::Plus(a, b);
  EXPECT_TRUE(sum.first);
  EXPECT_EQ(sum.second, 3.0);
  EXPECT_TRUE(PP::Leq(PP::Bottom(), a));
}

TEST(ProductPops, NontrivialCoreSemiring) {
  // Example 2.11: S × P with S naturally ordered and P strict-addition has
  // core S × {⊥}.
  using PP = ProductPops<TropS, Lifted<RealS>>;
  using C = CoreSemiring<PP>;
  PP::Value v = {4.0, Lifted<RealS>::Lift(9.0)};
  PP::Value injected = C::Inject(v);
  EXPECT_EQ(injected.first, 4.0);  // Trop component survives
  EXPECT_TRUE(Lifted<RealS>::Eq(injected.second,
                                Lifted<RealS>::Bottom()));  // lifted dies
}

// Every double carrier prints a value exactly as `std::ostringstream << a`
// does (printf "%.6g"), which the TSV dump relied on before it stopped
// using streams.
template <typename S>
void ExpectStreamText(double a) {
  std::ostringstream os;
  os << a;
  EXPECT_EQ(S::ToString(a), os.str()) << S::kName;
}

void ExpectAllCarriersStreamText(double a) {
  ExpectStreamText<TropS>(a);
  ExpectStreamText<MaxPlusS>(a);
  ExpectStreamText<ViterbiS>(a);
  ExpectStreamText<FuzzyS>(a);
  ExpectStreamText<RealS>(a);
  ExpectStreamText<RealPlusS>(a);
}

TEST(DoubleCarriers, ToStringMatchesOstreamByteForByte) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.0,      -0.0,      kInf,     -kInf,        kNan,          -kNan,
      1e-5,     -1e-5,     999999.5, 1e6,          123456.5,      999999.4,
      9999995,  1e-4,      0.1,      1.5,          -2.25,         DBL_MAX,
      -DBL_MAX, DBL_MIN,   2.5e-320, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      1.0,      17.0,      -5.0,     999999.0,     -999999.0,     123456.0,
      -1e6,     1e6 + 1,   3e9,      -0.5,         0.999999,      1e-300};
  for (double a : edges) ExpectAllCarriersStreamText(a);
  std::mt19937_64 rng(11);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t bits = rng();
    double a = 0;
    std::memcpy(&a, &bits, sizeof(a));
    ExpectAllCarriersStreamText(a);
    // Whole numbers around the six-digit boundary, where "%.6g" switches
    // to exponent form.
    ExpectAllCarriersStreamText(
        static_cast<double>(static_cast<int64_t>(rng() % 4000000) - 2000000));
  }
}

}  // namespace
}  // namespace datalogo
