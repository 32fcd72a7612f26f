// TSV relation I/O.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"
#include "tests/ci_knob.h"

namespace datalogo {
namespace {

constexpr const char* kBatchProgram =
    "edb E/2. bedb G/1. idb T/2. T(X,Y) :- E(X,Y).";

TEST(Io, LoadTropRelation) {
  Domain dom;
  Relation<TropS> rel(2);
  Status s = LoadTsv<TropS>(
      "# edges\n"
      "a b 1.5\n"
      "b c 2\n"
      "\n"
      "a c 9.25\n",
      &dom, &rel, ParseDoubleValue);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rel.support_size(), 3u);
  EXPECT_EQ(rel.Get({*dom.FindSymbol("a"), *dom.FindSymbol("b")}), 1.5);
}

TEST(Io, RepeatedTuplesAccumulate) {
  Domain dom;
  Relation<TropS> rel(1);
  ASSERT_TRUE(LoadTsv<TropS>("x 5\nx 3\nx 7\n", &dom, &rel,
                             ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.Get({*dom.FindSymbol("x")}), 3.0);  // min
}

TEST(Io, IntKeysInternAsIntegers) {
  Domain dom;
  Relation<NatS> rel(2);
  ASSERT_TRUE(
      LoadTsv<NatS>("1 2 10\n-3 2 4\n", &dom, &rel, ParseUintValue).ok());
  EXPECT_EQ(rel.Get({dom.InternInt(1), dom.InternInt(2)}), 10u);
  EXPECT_EQ(rel.Get({dom.InternInt(-3), dom.InternInt(2)}), 4u);
}

TEST(Io, ColumnCountErrors) {
  Domain dom;
  Relation<TropS> rel(2);
  Status s = LoadTsv<TropS>("a b\n", &dom, &rel, ParseDoubleValue);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
}

TEST(Io, BadValueErrors) {
  Domain dom;
  Relation<TropS> rel(1);
  EXPECT_FALSE(
      LoadTsv<TropS>("a not_a_number\n", &dom, &rel, ParseDoubleValue).ok());
}

TEST(Io, NanValueIsLoadError) {
  // NaN is ordered by no carrier: on Trop+ min(∞, NaN) = ∞ = ⊥ would drop
  // the fact silently, so the loader rejects it, naming the line.
  for (const char* nan : {"nan", "-nan", "NaN", "NAN", "nan(123)"}) {
    const std::string text = std::string("a b 1\nb c ") + nan + "\n";
    Domain dom;
    Relation<TropS> trop(2);
    Status s = LoadTsv<TropS>(text, &dom, &trop, ParseDoubleValue);
    ASSERT_FALSE(s.ok()) << nan;
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << nan;
    EXPECT_EQ(s.message(), std::string("line 2: cannot parse value '") +
                               nan + "'");
    Relation<FuzzyS> fuzzy(2);
    Status fs = LoadTsv<FuzzyS>(text, &dom, &fuzzy, ParseDoubleValue);
    ASSERT_FALSE(fs.ok()) << nan;
    EXPECT_EQ(fs.code(), Code::kInvalidArgument) << nan;
    EXPECT_NE(fs.message().find("line 2"), std::string::npos) << fs.message();
  }
  // Infinities are values of the carriers and still load.
  Domain dom;
  Relation<TropS> rel(1);
  ASSERT_TRUE(LoadTsv<TropS>("a inf\n", &dom, &rel, ParseDoubleValue).ok());
  EXPECT_EQ(rel.support_size(), 0u);  // ∞ = ⊥ is not stored
}

TEST(Io, CarrierParsersAcceptExactlyTheCarrier) {
  // Trop+ is [0, ∞]; Fuzzy and Viterbi are [0, 1]. A value outside its
  // carrier is a parse failure, not a clamp or a silent drop. The token
  // set is std::stod's, pinned here: a '+' sign, hex, infinity spellings
  // and bare-point decimals load; NaN, overflow and magnitudes at or below
  // DBL_MIN that glibc flags ERANGE (subnormals, and 2.2250738585072012e-308,
  // which rounds up to DBL_MIN) do not.
  const struct {
    const char* text;
    bool dbl;   // ParseDoubleValue accepts
    bool trop;  // ParseTropValue accepts
    bool unit;  // ParseUnitValue accepts
  } cases[] = {
      {"0", true, true, true},
      {"-0", true, true, true},
      {"0.25", true, true, true},
      {"1", true, true, true},
      {"1.0000001", true, true, false},
      {"2.5", true, true, false},
      {"20", true, true, false},
      {"inf", true, true, false},
      {"-1", true, false, false},
      {"-0.5", true, false, false},
      {"-3", true, false, false},
      {"-inf", true, false, false},
      {"nan", false, false, false},
      {"1e400", false, false, false},
      {"0.5x", false, false, false},
      {"", false, false, false},
      {"+5", true, true, false},
      {"0x10", true, true, false},
      {"1e-320", false, false, false},
      {"2.2250738585072011e-308", false, false, false},
      {"2.2250738585072012e-308", false, false, false},
      {"2.2250738585072014e-308", true, true, true},
      {"1e-400", false, false, false},
      {"Infinity", true, true, false},
      {"INF", true, true, false},
      {"nan(123)", false, false, false},
      {".5", true, true, true},
      {"1.", true, true, true},
  };
  for (const auto& c : cases) {
    double v = -42.0;
    EXPECT_EQ(ParseDoubleValue(c.text, &v), c.dbl) << c.text;
    EXPECT_EQ(ParseTropValue(c.text, &v), c.trop) << c.text;
    EXPECT_EQ(ParseUnitValue(c.text, &v), c.unit) << c.text;
  }
  const struct {
    const char* text;
    double want;
  } values[] = {
      {"+5", 5.0},
      {"0x10", 16.0},
      {"Infinity", io_internal::kInf},
      {"INF", io_internal::kInf},
      {".5", 0.5},
      {"1.", 1.0},
      {"-0", -0.0},
      {"2.2250738585072014e-308", std::numeric_limits<double>::min()},
  };
  for (const auto& c : values) {
    double v = -42.0;
    ASSERT_TRUE(ParseDoubleValue(c.text, &v)) << c.text;
    EXPECT_EQ(std::bit_cast<uint64_t>(v), std::bit_cast<uint64_t>(c.want))
        << c.text;
  }
}

TEST(Io, OutOfCarrierValuesNameTheLine) {
  // The loaders report an out-of-carrier value like any unparsable one:
  // InvalidArgument naming the line, on the TSV and the --update paths.
  Domain dom;
  Relation<TropS> trop(2);
  Status s = LoadTsv<TropS>("a b 1\nb a -1\n", &dom, &trop, ParseTropValue);
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "line 2: cannot parse value '-1'");
  for (const char* text :
       {"a b 2\n", "a b 2.5\n", "a b -3\n", "a b -0.5\n"}) {
    Relation<FuzzyS> fuzzy(2);
    Status fs = LoadTsv<FuzzyS>(text, &dom, &fuzzy, ParseUnitValue);
    EXPECT_EQ(fs.code(), Code::kInvalidArgument) << text;
    EXPECT_NE(fs.message().find("line 1: cannot parse value"),
              std::string::npos)
        << fs.message();
    Relation<ViterbiS> viterbi(2);
    Status vs = LoadTsv<ViterbiS>(text, &dom, &viterbi, ParseUnitValue);
    EXPECT_EQ(vs.code(), Code::kInvalidArgument) << text;
  }
  Program prog = ParseProgram(kBatchProgram, &dom).value();
  EdbDelta<TropS> batch;
  Status bs = LoadUpdateBatch<TropS>("+ E a b 1\n+ E b a -2\n", prog, &dom,
                                     ParseTropValue, &batch);
  EXPECT_EQ(bs.code(), Code::kInvalidArgument);
  EXPECT_EQ(bs.message(), "line 2: cannot parse value");
}

TEST(Io, BoolRelationAllColumnsAreKeys) {
  Domain dom;
  Relation<BoolS> rel(2);
  ASSERT_TRUE(LoadTsvBool("a b\nb c\n", &dom, &rel).ok());
  EXPECT_EQ(rel.support_size(), 2u);
  EXPECT_TRUE(rel.Get({*dom.FindSymbol("b"), *dom.FindSymbol("c")}));
}

TEST(Io, DumpRoundTrips) {
  Domain dom;
  Relation<TropS> rel(2);
  rel.Set({dom.InternSymbol("b"), dom.InternSymbol("a")}, 2.0);
  rel.Set({dom.InternSymbol("a"), dom.InternSymbol("b")}, 1.0);
  std::string tsv = DumpTsv(rel, dom);
  Domain dom2;
  Relation<TropS> rel2(2);
  ASSERT_TRUE(LoadTsv<TropS>(tsv, &dom2, &rel2, ParseDoubleValue).ok());
  EXPECT_EQ(rel2.support_size(), 2u);
  EXPECT_EQ(rel2.Get({*dom2.FindSymbol("a"), *dom2.FindSymbol("b")}), 1.0);
}

TEST(Io, EndToEndProgramFromTsv) {
  // Load edges from TSV, run APSP, dump the result.
  Domain dom;
  auto prog = ParseProgram(
                  "edb E/2. idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).",
                  &dom)
                  .value();
  EdbInstance<TropS> edb(prog);
  ASSERT_TRUE(LoadTsv<TropS>("a b 1\nb c 2\n", &dom,
                             &edb.pops(prog.FindPredicate("E")),
                             ParseDoubleValue)
                  .ok());
  Engine<TropS> engine(prog, edb);
  auto r = engine.SemiNaive(100);
  ASSERT_TRUE(r.converged);
  std::string out = DumpTsv(r.idb.idb(prog.FindPredicate("T")), dom);
  EXPECT_NE(out.find("a\tc\t3"), std::string::npos) << out;
}

TEST(Io, OutOfRangeIntKeyIsLoadErrorNotException) {
  // These tokens pass the integer-shape check but overflow int64: the
  // loader must return InvalidArgument (with the line number) instead of
  // letting std::out_of_range escape.
  for (const char* tok :
       {"-99999999999999999999999", "99999999999999999999999",
        "9223372036854775808",   // INT64_MAX + 1
        "-9223372036854775809",  // INT64_MIN - 1
        "18446744073709551616"}) {
    Domain dom;
    Relation<TropS> rel(1);
    Status s = LoadTsv<TropS>(std::string("a 1\n") + tok + " 2\n", &dom,
                              &rel, ParseDoubleValue);
    ASSERT_FALSE(s.ok()) << tok;
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << tok;
    EXPECT_NE(s.ToString().find("line 2"), std::string::npos)
        << s.ToString();

    Relation<BoolS> brel(1);
    Status bs = LoadTsvBool(std::string(tok) + "\n", &dom, &brel);
    ASSERT_FALSE(bs.ok()) << tok;
    EXPECT_EQ(bs.code(), Code::kInvalidArgument) << tok;
    EXPECT_NE(bs.ToString().find("line 1"), std::string::npos)
        << bs.ToString();
  }
  // Exactly-at-the-limit tokens still load.
  Domain dom;
  Relation<TropS> rel(1);
  EXPECT_TRUE(LoadTsv<TropS>(
                  "9223372036854775807 1\n-9223372036854775808 2\n", &dom,
                  &rel, ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.support_size(), 2u);
}

TEST(Io, KeyTokensInternAsTheIntegerGrammarSays) {
  // TryInternToken classifies with one from_chars; the grammar is
  // `-?[0-9]+` → integer (a load error outside int64_t), anything else →
  // symbol. Checked against that grammar spelled out by LooksLikeInt, on
  // edge tokens and on random soup over the bytes that matter.
  auto expect = [](std::string_view tok) {
    Domain dom, ref_dom;
    ConstId id = 0, ref_id = 0;
    const bool ok = io_internal::TryInternToken(tok, &dom, &id);
    bool ref_ok = true;
    if (io_internal::LooksLikeInt(tok)) {
      int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      ref_ok = ec == std::errc() && p == tok.data() + tok.size();
      if (ref_ok) ref_id = ref_dom.InternInt(v);
    } else {
      ref_id = ref_dom.InternSymbol(tok);
    }
    ASSERT_EQ(ok, ref_ok) << "'" << tok << "'";
    if (!ok) return;
    EXPECT_EQ(id, ref_id) << "'" << tok << "'";
    EXPECT_EQ(dom.IsInt(id), ref_dom.IsInt(ref_id)) << "'" << tok << "'";
    EXPECT_EQ(dom.ToString(id), ref_dom.ToString(ref_id))
        << "'" << tok << "'";
  };
  for (const char* tok :
       {"", "-", "--3", "+5", "5", "-5", "007", "-0", "1.5", "0x10", "12abc",
        "a1", " 5", "9223372036854775807", "-9223372036854775808",
        "9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "99999999999999999999x",
        "-9999999999999999999-"}) {
    expect(tok);
  }
  std::mt19937 rng(53);
  const char bytes[] = "0123456789-+x. ";
  for (int it = 0; it < CiIterations(20000, 4000); ++it) {
    std::string tok(rng() % 22, ' ');
    for (char& c : tok) c = bytes[rng() % (sizeof(bytes) - 1)];
    expect(tok);
  }
}

TEST(Io, OutOfRangeUintValueIsParseError) {
  Domain dom;
  Relation<NatS> rel(1);
  Status s = LoadTsv<NatS>("a 99999999999999999999999\n", &dom, &rel,
                           ParseUintValue);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
}

TEST(Io, NonDumpableSymbolsRejectedAtDump) {
  // A symbol containing whitespace would re-split into extra columns on
  // reload; empty / '#'-leading / integer-spelling symbols would vanish
  // or re-intern as something else. All must fail at dump time.
  for (const char* bad : {"has space", "has\ttab", "has\nnewline",
                          "has\vvtab", "has\fformfeed", "has\rcr", "",
                          "#comment", "42", "-7"}) {
    Domain dom;
    Relation<TropS> rel(1);
    rel.Set({dom.InternSymbol(bad)}, 1.0);
    std::string out;
    Status s = DumpTsvChecked(rel, dom, &out);
    ASSERT_FALSE(s.ok()) << "'" << bad << "'";
    EXPECT_EQ(s.code(), Code::kInvalidArgument);
  }
}

TEST(Io, CrlfLoadsLikeLf) {
  Domain dom;
  Relation<TropS> rel(2);
  ASSERT_TRUE(LoadTsv<TropS>("a b 1\r\nb c 2\r\n", &dom, &rel,
                             ParseDoubleValue)
                  .ok());
  EXPECT_EQ(rel.support_size(), 2u);
  EXPECT_EQ(rel.Get({*dom.FindSymbol("a"), *dom.FindSymbol("b")}), 1.0);
  Relation<BoolS> brel(1);
  ASSERT_TRUE(LoadTsvBool("x\r\ny\r\n", &dom, &brel).ok());
  EXPECT_TRUE(brel.Get({*dom.FindSymbol("x")}));
}

TEST(Io, RandomizedDumpLoadRoundTrip) {
  // Property: any relation over dumpable symbols and integers survives
  // Dump → Load into a fresh domain with identical support and values.
  std::mt19937 rng(7);
  const int iters = CiIterations(200, 40);
  for (int it = 0; it < iters; ++it) {
    Domain dom;
    const int arity = 1 + static_cast<int>(rng() % 3);
    Relation<NatS> rel(arity);
    const int rows = static_cast<int>(rng() % 12);
    for (int r = 0; r < rows; ++r) {
      Tuple t;
      for (int p = 0; p < arity; ++p) {
        if (rng() % 2) {
          t.push_back(dom.InternInt(static_cast<int64_t>(rng() % 1000) - 500));
        } else {
          t.push_back(dom.InternSymbol("s" + std::to_string(rng() % 50)));
        }
      }
      rel.Merge(t, uint64_t{1} + rng() % 100);
    }
    std::string tsv;
    ASSERT_TRUE(DumpTsvChecked(rel, dom, &tsv).ok());
    Domain dom2;
    Relation<NatS> rel2(arity);
    ASSERT_TRUE(LoadTsv<NatS>(tsv, &dom2, &rel2, ParseUintValue).ok())
        << tsv;
    ASSERT_EQ(rel2.support_size(), rel.support_size()) << tsv;
    // Values survive: re-dump from the fresh domain must match byte-wise
    // (rows are emitted in lexicographic key order on both sides... of
    // the SAME interning, so compare through a second round-trip).
    std::string tsv2;
    ASSERT_TRUE(DumpTsvChecked(rel2, dom2, &tsv2).ok());
    Domain dom3;
    Relation<NatS> rel3(arity);
    ASSERT_TRUE(LoadTsv<NatS>(tsv2, &dom3, &rel3, ParseUintValue).ok());
    ASSERT_EQ(rel3.support_size(), rel.support_size());
  }
}

// Reference loader: the stream-based algorithm LoadTsv and LoadTsvBool
// must match exactly — std::getline per line, `std::istringstream >>` per
// token. Loads into `rel` (keys + value) or, when it is null, into `brel`
// (keys only).
Status ReferenceLoad(const std::string& text, Domain* dom,
                     Relation<TropS>* rel, Relation<BoolS>* brel) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::vector<std::string> toks;
    for (std::string tok; ls >> tok;) toks.push_back(tok);
    if (toks.empty()) continue;
    const std::string at = "line " + std::to_string(lineno) + ": ";
    const int keys = rel ? rel->arity() : brel->arity();
    if (static_cast<int>(toks.size()) != keys + (rel ? 1 : 0)) {
      return InvalidArgument(
          at + "expected " + std::to_string(keys) +
          (rel ? " keys + 1 value, got " + std::to_string(toks.size()) +
                     " columns"
               : std::string(" key columns")));
    }
    Tuple t;
    for (int i = 0; i < keys; ++i) {
      ConstId id = 0;
      if (!io_internal::TryInternToken(toks[i], dom, &id)) {
        return InvalidArgument(at + "integer key out of 64-bit range '" +
                               toks[i] + "'");
      }
      t.push_back(id);
    }
    if (!rel) {
      brel->Set(t, true);
      continue;
    }
    double v = 0;
    if (!ParseDoubleValue(toks.back(), &v)) {
      return InvalidArgument(at + "cannot parse value '" + toks.back() + "'");
    }
    rel->Merge(t, v);
  }
  return Status::Ok();
}

void ExpectSameDomain(const Domain& got, const Domain& want) {
  ASSERT_EQ(got.size(), want.size());
  for (ConstId id = 0; id < want.size(); ++id) {
    EXPECT_EQ(got.IsInt(id), want.IsInt(id)) << id;
    EXPECT_EQ(got.ToString(id), want.ToString(id)) << id;
  }
}

template <Pops P>
void ExpectSameRelation(const Relation<P>& got, const Relation<P>& want) {
  const std::vector<uint32_t> g = got.SortedLiveRows();
  const std::vector<uint32_t> w = want.SortedLiveRows();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (int p = 0; p < want.arity(); ++p) {
      EXPECT_EQ(got.Cell(g[i], p), want.Cell(w[i], p));
    }
    EXPECT_TRUE(P::Eq(got.ValueAt(g[i]), want.ValueAt(w[i])));
  }
}

TEST(Io, LoaderNeverThrowsOnArbitraryInput) {
  // Fuzz-ish sweep: random token soup (integer-shaped, overflowing,
  // comment-like, junk) separated by every whitespace byte must always
  // produce Ok or InvalidArgument — never an exception, never a crash —
  // and must load exactly as ReferenceLoad does: same status code and
  // message, same interning order, same relation contents.
  std::mt19937 rng(13);
  const char* pieces[] = {"a",
                          "42",
                          "-7",
                          "99999999999999999999999",
                          "-99999999999999999999999",
                          "9223372036854775808",
                          "#x",
                          "1.5",
                          "nan",
                          "inf",
                          "s#y",
                          "--3",
                          "0000000000000000000000009"};
  const char* separators[] = {" ", " ", "\t", "\v", "\f", "\r", " \t "};
  const char* line_starts[] = {"", "", "", " ", "\t", " #c ", "#c ", "\f"};
  auto pick = [&](auto& arr) {
    return arr[rng() % std::size(arr)];
  };
  const int iters = CiIterations(500, 100);
  for (int it = 0; it < iters; ++it) {
    std::string text;
    const int lines = static_cast<int>(rng() % 6);
    for (int l = 0; l < lines; ++l) {
      if (rng() % 5 == 0) text.append(rng() % 3 + 1, '\n');  // blank run
      text += pick(line_starts);
      const int toks = static_cast<int>(rng() % 5);
      for (int t = 0; t < toks; ++t) {
        if (t) text += pick(separators);
        text += pick(pieces);
      }
      if (rng() % 4 == 0) text += pick(separators);
      // The last line sometimes has no final newline.
      if (l + 1 < lines || rng() % 3) text += (rng() % 4 == 0) ? "\r\n" : "\n";
    }
    Domain dom, ref_dom;
    Relation<TropS> rel(2), ref_rel(2);
    Status s = LoadTsv<TropS>(text, &dom, &rel, ParseDoubleValue);
    Status ref = ReferenceLoad(text, &ref_dom, &ref_rel, nullptr);
    EXPECT_TRUE(s.ok() || s.code() == Code::kInvalidArgument) << text;
    EXPECT_EQ(s.code(), ref.code()) << text;
    EXPECT_EQ(s.message(), ref.message()) << text;
    ExpectSameDomain(dom, ref_dom);
    ExpectSameRelation(rel, ref_rel);

    Domain bdom, ref_bdom;
    Relation<BoolS> brel(2), ref_brel(2);
    Status bs = LoadTsvBool(text, &bdom, &brel);
    Status bref = ReferenceLoad(text, &ref_bdom, nullptr, &ref_brel);
    EXPECT_TRUE(bs.ok() || bs.code() == Code::kInvalidArgument) << text;
    EXPECT_EQ(bs.code(), bref.code()) << text;
    EXPECT_EQ(bs.message(), bref.message()) << text;
    ExpectSameDomain(bdom, ref_bdom);
    ExpectSameRelation(brel, ref_brel);
  }
}

// LoadTsv stages every line's row and folds them with one table layout.
// The fold must leave exactly what one Merge per line left: the same row
// ids, keys, liveness, tombstones and value bits.

/// The per-line loader the fold replaced: one Merge per token line.
template <Pops P, typename ParseFn>
Status MergePerLine(const std::string& text, Domain* dom, Relation<P>* rel,
                    ParseFn&& parse_value) {
  const int arity = rel->arity();
  return io_internal::ForEachTokenLine(
      text, [&](int lineno, std::span<const std::string_view> toks) {
        if (static_cast<int>(toks.size()) != arity + 1) {
          return InvalidArgument("column count");
        }
        Tuple t;
        Status s =
            io_internal::InternKeys(toks.first(arity), lineno, dom, &t);
        if (!s.ok()) return s;
        typename P::Value v;
        if (!parse_value(toks.back(), &v)) return InvalidArgument("value");
        rel->Merge(t, v);
        return Status::Ok();
      });
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
bool SameBits(uint64_t a, uint64_t b) { return a == b; }
bool SameBits(bool a, bool b) { return a == b; }
bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || SameBits(*a, *b));
}

/// Row by row, tombstoned rows included; then every row's key is probed
/// through the row-id table, which must find live rows and only them.
template <Pops P>
void ExpectSameRows(const Relation<P>& got, const Relation<P>& want,
                    const std::string& text) {
  ASSERT_EQ(got.num_rows(), want.num_rows()) << text;
  EXPECT_EQ(got.tombstones(), want.tombstones()) << text;
  EXPECT_EQ(got.support_size(), want.support_size()) << text;
  for (uint32_t r = 0; r < want.num_rows(); ++r) {
    for (int p = 0; p < want.arity(); ++p) {
      EXPECT_EQ(got.Cell(r, p), want.Cell(r, p)) << "row " << r << "\n"
                                                 << text;
    }
    EXPECT_EQ(got.RowLive(r), want.RowLive(r)) << "row " << r << "\n"
                                               << text;
    EXPECT_TRUE(SameBits(got.ValueAt(r), want.ValueAt(r)))
        << "row " << r << ": " << P::ToString(got.ValueAt(r)) << " vs "
        << P::ToString(want.ValueAt(r)) << "\n"
        << text;
    EXPECT_EQ(got.LiveValue(got.View(r)),
              got.RowLive(r) ? &got.ValueAt(r) : nullptr)
        << "row " << r << "\n"
        << text;
  }
}

/// `lines` lines of `arity` keys from a pool of seven constants, so keys
/// repeat heavily, each with a value from `values`; comments and blank
/// lines mixed in. With `bad_line` > 0, that line number holds an
/// unparsable value instead and the text goes on after it.
std::string DupHeavyTsv(std::mt19937& rng, int lines, int arity,
                        const std::vector<const char*>& values,
                        int bad_line) {
  const char* keys[] = {"a", "b", "c", "7", "-3", "0", "x9"};
  std::string text;
  for (int l = 1; l <= lines; ++l) {
    if (l != bad_line && rng() % 9 == 0) {
      text += rng() % 2 ? "# comment\n" : "\n";
      continue;
    }
    for (int p = 0; p < arity; ++p) {
      text += keys[rng() % std::size(keys)];
      text += '\t';
    }
    text += l == bad_line ? "zz" : values[rng() % values.size()];
    text += '\n';
  }
  return text;
}

/// Loads two random texts in a row through LoadTsv and through
/// MergePerLine into relations that `prefill` may have set rows in, over
/// domains that may already hold 3000 symbols (pushing ids past the
/// direct row-id table's range on arity 2), comparing after each load and
/// after one more Merge of `probe` into every row's key.
template <Pops P, typename ParseFn, typename PrefillFn>
void ExpectFoldMatchesPerLineMerge(uint32_t seed,
                                   const std::vector<const char*>& values,
                                   ParseFn parse, PrefillFn prefill,
                                   const typename P::Value& probe) {
  std::mt19937 rng(seed);
  const int iters = CiIterations(60, 15);
  for (int it = 0; it < iters; ++it) {
    const int arity = 1 + it % 3;
    Domain dom, ref_dom;
    if (rng() % 2) {
      for (int i = 0; i < 3000; ++i) {
        dom.InternSymbol("f" + std::to_string(i));
        ref_dom.InternSymbol("f" + std::to_string(i));
      }
    }
    Relation<P> rel(arity), ref(arity);
    const uint32_t prefill_seed = rng();
    prefill(prefill_seed, &dom, &rel);
    prefill(prefill_seed, &ref_dom, &ref);
    for (int load = 0; load < 2; ++load) {
      const int lines = 1 + static_cast<int>(rng() % 300);
      const int bad = rng() % 4 == 0 ? 1 + static_cast<int>(rng() % lines)
                                     : 0;
      const std::string text = DupHeavyTsv(rng, lines, arity, values, bad);
      const uint64_t version = rel.version();
      const uint64_t hard = rel.hard_version();
      const uint64_t ref_version = ref.version();
      const uint64_t ref_hard = ref.hard_version();
      Status s = LoadTsv<P>(text, &dom, &rel, parse);
      Status want = MergePerLine<P>(text, &ref_dom, &ref, parse);
      ASSERT_EQ(s.ok(), want.ok()) << s.ToString() << "\n" << text;
      // The fold bumps once, and hard exactly when the merges did.
      EXPECT_EQ(rel.version() != version, ref.version() != ref_version)
          << text;
      EXPECT_EQ(rel.hard_version() != hard, ref.hard_version() != ref_hard)
          << text;
      if (bad > 0) {
        EXPECT_EQ(s.message(), io_internal::LinePrefix(bad) +
                                   "cannot parse value 'zz'");
      }
      ExpectSameRows(rel, ref, text);
    }
    for (uint32_t r = 0; r < ref.num_rows(); ++r) {
      rel.Merge(rel.View(r), probe);
      ref.Merge(ref.View(r), probe);
    }
    ExpectSameRows(rel, ref, "after one more Merge per row");
  }
}

/// Sets a few random keys over the DupHeavyTsv pool to `v`.
template <Pops P>
auto SetSome(typename P::Value v) {
  return [v](uint32_t seed, Domain* dom, Relation<P>* rel) {
    std::mt19937 rng(seed);
    const char* keys[] = {"a", "b", "7", "x9"};
    for (int i = static_cast<int>(rng() % 6); i > 0; --i) {
      Tuple t;
      for (int p = 0; p < rel->arity(); ++p) {
        ConstId id = 0;
        ASSERT_TRUE(io_internal::TryInternToken(keys[rng() % 4], dom, &id));
        t.push_back(id);
      }
      rel->Set(t, v);
    }
  };
}

TEST(Io, FoldedLoadMatchesPerLineMergeOnRealPlus) {
  // ⊥ = 0: 5 then -5 sums to ⊥ and tombstones the row; a later 3 revives
  // it in place. Sums are order-sensitive in the last bit, so the fold
  // must ⊕ in file order to stay bit-identical.
  Domain dom;
  Relation<RealPlusS> rel(1);
  ASSERT_TRUE(
      LoadTsv<RealPlusS>("k 5\nj 1\nk -5\n", &dom, &rel, ParseDoubleValue)
          .ok());
  EXPECT_EQ(rel.num_rows(), 2u);
  EXPECT_EQ(rel.tombstones(), 1u);
  EXPECT_FALSE(rel.RowLive(0));
  ASSERT_TRUE(
      LoadTsv<RealPlusS>("k 3\n", &dom, &rel, ParseDoubleValue).ok());
  EXPECT_EQ(rel.num_rows(), 2u);
  EXPECT_TRUE(rel.RowLive(0));
  EXPECT_EQ(rel.ValueAt(0), 3.0);
  ExpectFoldMatchesPerLineMerge<RealPlusS>(
      31, {"5", "-5", "3", "0", "-0", "0.1", "-0.3", "1e16"},
      ParseDoubleValue, SetSome<RealPlusS>(2.0), 0.7);
}

TEST(Io, FoldedLoadMatchesPerLineMergeOnLiftedReals) {
  // ⊥ absorbs: ⊥ ⊕ v = ⊥, so a load stores no new key, and a "bot" line
  // tombstones a row that was set before the load.
  using L = Lifted<RealS>;
  auto parse = [](std::string_view s, L::Value* out) {
    if (s == "bot") {
      *out = std::nullopt;
      return true;
    }
    double d = 0;
    if (!ParseDoubleValue(s, &d)) return false;
    *out = d;
    return true;
  };
  ExpectFoldMatchesPerLineMerge<L>(37, {"1", "2.5", "bot", "-1"}, parse,
                                   SetSome<L>(L::Value(4.0)),
                                   L::Value(1.0));
}

TEST(Io, FoldedLoadMatchesPerLineMergeOnNat) {
  // 0 = ⊥: a key's leading zero lines store nothing; its row appears at
  // its first non-zero line.
  ExpectFoldMatchesPerLineMerge<NatS>(41, {"0", "0", "1", "2"},
                                      ParseUintValue, SetSome<NatS>(3),
                                      uint64_t{1});
}

TEST(Io, FoldedLoadMatchesPerLineMergeOnTrop) {
  // inf = ⊥ lines before a key's first finite value store nothing; after
  // it they leave the minimum alone.
  ExpectFoldMatchesPerLineMerge<TropS>(43, {"inf", "inf", "3", "1", "2.5"},
                                       ParseTropValue, SetSome<TropS>(2.0),
                                       0.5);
}

TEST(Io, FoldedBoolLoadMatchesPerLineSet) {
  std::mt19937 rng(47);
  const int iters = CiIterations(60, 15);
  for (int it = 0; it < iters; ++it) {
    const int arity = 1 + it % 3;
    // DupHeavyTsv's value column becomes one more key column here.
    const std::string text = DupHeavyTsv(
        rng, 1 + static_cast<int>(rng() % 300), arity - 1, {"a", "7"}, 0);
    Domain dom, ref_dom;
    Relation<BoolS> rel(arity), ref(arity);
    ASSERT_TRUE(LoadTsvBool(text, &dom, &rel).ok());
    ASSERT_TRUE(io_internal::ForEachTokenLine(
                    text,
                    [&](int lineno, std::span<const std::string_view> toks) {
                      Tuple t;
                      Status s =
                          io_internal::InternKeys(toks, lineno, &ref_dom, &t);
                      if (s.ok()) ref.Set(t, true);
                      return s;
                    })
                    .ok());
    ExpectSameRows(rel, ref, text);
  }
}

TEST(Io, SplitLineMatchesStreamExtraction) {
  for (const char* line : {"", " ", "a", " a\tb\vc\fd\re ", "x\r", "#a b"}) {
    std::istringstream is(line);
    std::vector<std::string> want;
    for (std::string tok; is >> tok;) want.push_back(tok);
    EXPECT_EQ(io_internal::SplitLine(line), want) << line;
  }
}

TEST(Io, LoadUpdateBatchParsesEveryMutationKind) {
  Domain dom;
  Program prog = ParseProgram(kBatchProgram, &dom).value();
  EdbDelta<TropS> batch;
  Status s = LoadUpdateBatch<TropS>(
      "# batch\n"
      "+ E a b 2.5\n"
      "\n"
      "- E b c\n"
      "+\tG 7\r\n"
      "- G x",
      prog, &dom, ParseDoubleValue, &batch);
  ASSERT_TRUE(s.ok()) << s.ToString();
  const int e = prog.FindPredicate("E");
  const int g = prog.FindPredicate("G");
  ASSERT_EQ(batch.pops_adds.size(), 1u);
  EXPECT_EQ(batch.pops_adds[0].pred, e);
  EXPECT_EQ(batch.pops_adds[0].value, 2.5);
  EXPECT_EQ(batch.pops_adds[0].tuple,
            Tuple({*dom.FindSymbol("a"), *dom.FindSymbol("b")}));
  ASSERT_EQ(batch.pops_deletes.size(), 1u);
  EXPECT_EQ(batch.pops_deletes[0].pred, e);
  ASSERT_EQ(batch.bool_adds.size(), 1u);
  EXPECT_EQ(batch.bool_adds[0].pred, g);
  EXPECT_EQ(batch.bool_adds[0].tuple, Tuple({dom.InternInt(7)}));
  ASSERT_EQ(batch.bool_deletes.size(), 1u);
  EXPECT_EQ(batch.bool_deletes[0].tuple, Tuple({*dom.FindSymbol("x")}));
}

TEST(Io, LoadUpdateBatchErrorsNameTheLine) {
  const struct {
    const char* text;
    const char* message;
  } cases[] = {
      {"* E a b 1\n", "line 1: expected '+' or '-'"},
      {"+ E a b 1\n+\n", "line 2: missing predicate"},
      {"\n\n- Q a\n", "line 3: unknown predicate"},
      {"+ T a b 1\n", "line 1: IDB predicates are derived"},
      {"+ E a b\n", "line 1: wrong column count for predicate arity"},
      {"- E a b 1\n", "line 1: wrong column count for predicate arity"},
      {"+ G a 1\n", "line 1: wrong column count for predicate arity"},
      {"+ E a b nan\n", "line 1: cannot parse value"},
      {"- E 99999999999999999999 b\n",
       "line 1: integer key out of 64-bit range '99999999999999999999'"},
  };
  for (const auto& c : cases) {
    Domain dom;
    Program prog = ParseProgram(kBatchProgram, &dom).value();
    EdbDelta<TropS> batch;
    Status s = LoadUpdateBatch<TropS>(c.text, prog, &dom, ParseDoubleValue,
                                      &batch);
    EXPECT_EQ(s.code(), Code::kInvalidArgument) << c.text;
    EXPECT_EQ(s.message(), c.message) << c.text;
  }
}

TEST(Io, UpdateBatchLoaderNeverThrowsOnArbitraryInput) {
  // The --update batch parser under the same token soup as the TSV
  // loaders, plus the batch's own vocabulary: always Ok or
  // InvalidArgument, never an exception.
  std::mt19937 rng(17);
  const char* pieces[] = {"+", "-", "E", "G", "T", "Q", "a", "42", "-7",
                          "99999999999999999999999", "#x", "1.5", "nan",
                          "inf", "--3", "*"};
  const char* separators[] = {" ", "\t", "\v", "\f", "\r"};
  const int iters = CiIterations(500, 100);
  for (int it = 0; it < iters; ++it) {
    std::string text;
    const int lines = static_cast<int>(rng() % 6);
    for (int l = 0; l < lines; ++l) {
      const int toks = static_cast<int>(rng() % 6);
      for (int t = 0; t < toks; ++t) {
        if (t) text += separators[rng() % std::size(separators)];
        // Lines lead with an op most of the time so deeper checks run.
        text += t == 0 && rng() % 4 ? (rng() % 2 ? "+" : "-")
                                    : pieces[rng() % std::size(pieces)];
      }
      text += "\n";
    }
    Domain dom;
    Program prog = ParseProgram(kBatchProgram, &dom).value();
    EdbDelta<TropS> batch;
    Status s = LoadUpdateBatch<TropS>(text, prog, &dom, ParseDoubleValue,
                                      &batch);
    EXPECT_TRUE(s.ok() || s.code() == Code::kInvalidArgument) << text;
  }
}

}  // namespace
}  // namespace datalogo
