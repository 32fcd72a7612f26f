// Domain interning.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "src/relation/domain.h"

namespace datalogo {
namespace {

TEST(Domain, SymbolInterningIsIdempotent) {
  Domain dom;
  ConstId a = dom.InternSymbol("alpha");
  ConstId b = dom.InternSymbol("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(dom.InternSymbol("alpha"), a);
  EXPECT_EQ(dom.size(), 2u);
  EXPECT_EQ(dom.ToString(a), "alpha");
  EXPECT_FALSE(dom.IsInt(a));
  EXPECT_EQ(dom.AsInt(a), std::nullopt);
}

TEST(Domain, IntInterning) {
  Domain dom;
  ConstId x = dom.InternInt(42);
  EXPECT_EQ(dom.InternInt(42), x);
  EXPECT_NE(dom.InternInt(-7), x);
  EXPECT_TRUE(dom.IsInt(x));
  EXPECT_EQ(*dom.AsInt(x), 42);
  EXPECT_EQ(dom.ToString(x), "42");
}

TEST(Domain, SymbolsAndIntsDoNotCollide) {
  Domain dom;
  ConstId s = dom.InternSymbol("42");  // the SYMBOL "42"
  ConstId i = dom.InternInt(42);
  EXPECT_NE(s, i);
}

TEST(Domain, FindSymbolDoesNotIntern) {
  Domain dom;
  EXPECT_EQ(dom.FindSymbol("missing"), std::nullopt);
  EXPECT_EQ(dom.size(), 0u);
  dom.InternSymbol("here");
  EXPECT_TRUE(dom.FindSymbol("here").has_value());
}

TEST(Domain, AllIdsEnumeratesEverything) {
  Domain dom;
  dom.InternSymbol("a");
  dom.InternInt(1);
  dom.InternSymbol("b");
  auto ids = dom.AllIds();
  EXPECT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[2], 2u);
}

TEST(Domain, IdsFollowInterningOrderAcrossKinds) {
  // Ids are dense in first-interning order whatever the kind, and a
  // string_view probe finds the symbol interned from a std::string.
  Domain dom;
  EXPECT_EQ(dom.InternInt(5), 0u);
  EXPECT_EQ(dom.InternSymbol(std::string("x")), 1u);
  EXPECT_EQ(dom.InternInt(-5), 2u);
  EXPECT_EQ(dom.InternInt(5), 0u);
  const std::string_view line = "x y";
  EXPECT_EQ(dom.InternSymbol(line.substr(0, 1)), 1u);
  EXPECT_EQ(dom.FindSymbol(line.substr(2)), std::nullopt);
  EXPECT_EQ(dom.size(), 3u);
}

TEST(Domain, AppendToMatchesToString) {
  Domain dom;
  const ConstId ids[] = {
      dom.InternSymbol("alpha"), dom.InternInt(0), dom.InternInt(-7),
      dom.InternInt(std::numeric_limits<int64_t>::max()),
      dom.InternInt(std::numeric_limits<int64_t>::min()),
      dom.InternSymbol("a-rather-long-symbol-beyond-the-small-buffer")};
  std::string out = "prefix|";
  std::string want = out;
  for (ConstId id : ids) {
    dom.AppendTo(id, &out);
    want += dom.ToString(id);
  }
  EXPECT_EQ(out, want);
}

}  // namespace
}  // namespace datalogo
