// K-relations: support invariant, merge, equality, indexes.
#include <gtest/gtest.h>

#include "src/relation/relation.h"
#include "src/semiring/lifted.h"
#include "src/semiring/reals.h"
#include "src/semiring/tropical.h"

namespace datalogo {
namespace {

TEST(Relation, SupportInvariantExcludesBottom) {
  Relation<TropS> r(2);
  r.Set({1, 2}, 5.0);
  EXPECT_EQ(r.support_size(), 1u);
  r.Set({1, 2}, TropS::Inf());  // ⊥ erases
  EXPECT_EQ(r.support_size(), 0u);
  EXPECT_EQ(r.Get({1, 2}), TropS::Inf());
}

TEST(Relation, MergeAccumulatesWithPlus) {
  Relation<TropS> r(1);
  r.Merge({7}, 5.0);
  r.Merge({7}, 3.0);
  r.Merge({7}, 9.0);
  EXPECT_EQ(r.Get({7}), 3.0);  // min
}

TEST(Relation, GetOutsideSupportIsBottom) {
  using L = Lifted<RealS>;
  Relation<L> r(1);
  EXPECT_TRUE(L::Eq(r.Get({0}), L::Bottom()));
  r.Set({0}, L::Lift(0.0));  // a present tuple with base value 0
  EXPECT_EQ(r.support_size(), 1u);  // 0 ≠ ⊥ in R⊥!
}

TEST(Relation, EqualsComparesSupportAndValues) {
  Relation<TropS> a(1), b(1);
  a.Set({1}, 2.0);
  b.Set({1}, 2.0);
  EXPECT_TRUE(a.Equals(b));
  b.Set({1}, 3.0);
  EXPECT_FALSE(a.Equals(b));
  b.Set({1}, 2.0);
  b.Set({2}, 4.0);
  EXPECT_FALSE(a.Equals(b));
}

TEST(Relation, IndexLookupByPositions) {
  Relation<TropS> r(2);
  r.Set({1, 10}, 1.0);
  r.Set({1, 20}, 2.0);
  r.Set({2, 10}, 3.0);
  RelationIndex by_first(r, {0});
  EXPECT_EQ(by_first.Lookup({1}).size(), 2u);
  EXPECT_EQ(by_first.Lookup({2}).size(), 1u);
  EXPECT_EQ(by_first.Lookup({9}).size(), 0u);
  RelationIndex by_both(r, {0, 1});
  EXPECT_EQ(by_both.Lookup({1, 20}).size(), 1u);
  RelationIndex scan(r, {});
  EXPECT_EQ(scan.Lookup({}).size(), 3u);
}

TEST(Relation, CollectConstants) {
  Relation<TropS> r(2);
  r.Set({5, 6}, 1.0);
  std::vector<ConstId> ids;
  r.CollectConstants(ids);
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Relation, ToStringIsSortedAndStable) {
  Domain dom;
  ConstId a = dom.InternSymbol("a"), b = dom.InternSymbol("b");
  Relation<TropS> r(2);
  r.Set({b, a}, 2.0);
  r.Set({a, b}, 1.0);
  EXPECT_EQ(r.ToString(dom), "(a,b) -> 1\n(b,a) -> 2\n");
}

}  // namespace
}  // namespace datalogo
