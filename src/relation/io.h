// TSV import/export for K-relations.
//
// Token grammar (one tuple per line; lines end at LF):
//   line    := '#' comment | WS* | token (WS+ token)* WS*
//   token   := 1*<any byte except WS>
//   WS      := space | \t | \n | \v | \f | \r   (the C-locale isspace bytes)
// Tokens are whitespace-delimited, so a symbol containing whitespace
// cannot be represented; DumpTsv/DumpTsvChecked reject such symbols
// instead of emitting text that the loader would re-split into extra
// columns on reload. A token matching `-?[0-9]+` interns as the 64-bit
// integer it spells (out-of-range integer tokens are a load error, not an
// exception); every other token interns as a symbol. Lines that are empty
// or whose first byte is '#' are skipped, as are lines holding only
// whitespace, which is why a symbol may not begin with '#': it would
// round-trip into a comment. CR before LF is whitespace, so CRLF files
// load like LF files.
//
// POPS relations carry the value in the last column; Boolean relations
// are key-only. Loading reserves the relation's columns for the text's
// line count, walks the text once cutting tokens as views into it, stages
// one row per line in the columns, and then ⊕-folds the staged rows with
// one row-id table layout (Relation::FoldStaged): the result is that of
// one Merge per line. Dumping appends straight into one string. Neither
// uses iostreams.
#ifndef DATALOGO_RELATION_IO_H_
#define DATALOGO_RELATION_IO_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/check.h"
#include "src/core/status.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"

namespace datalogo {
namespace io_internal {

/// The bytes `std::istream >> std::string` splits on in the C locale.
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline bool LooksLikeInt(std::string_view s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// Interns one key token: integer-looking tokens as integers, everything
/// else as symbols. Returns false — instead of throwing through the
/// loaders — when the token spells an integer that does not fit int64_t.
/// One std::from_chars both tests and converts: it takes exactly
/// `-?[0-9]+` whole (in range or not) and stops early on anything else.
inline bool TryInternToken(std::string_view tok, Domain* dom, ConstId* out) {
  int64_t v = 0;
  const char* end = tok.data() + tok.size();
  auto [p, ec] = std::from_chars(tok.data(), end, v);
  if (p == end && ec != std::errc::invalid_argument) {
    if (ec != std::errc()) return false;  // an integer outside int64_t
    *out = dom->InternInt(v);
    return true;
  }
  *out = dom->InternSymbol(tok);
  return true;
}

/// Cuts the first token off `*rest`, which then starts right after it;
/// returns an empty view when `*rest` holds no more tokens.
inline std::string_view NextToken(std::string_view* rest) {
  const char* p = rest->data();
  const char* const end = p + rest->size();
  while (p != end && IsSpace(*p)) ++p;
  const char* start = p;
  while (p != end && !IsSpace(*p)) ++p;
  *rest = std::string_view(p, end - p);
  return std::string_view(start, p - start);
}

/// The tokens of `line` as owning strings.
inline std::vector<std::string> SplitLine(std::string_view line) {
  std::vector<std::string> out;
  for (std::string_view tok; !(tok = NextToken(&line)).empty();) {
    out.emplace_back(tok);
  }
  return out;
}

inline std::string LinePrefix(int lineno) {
  return "line " + std::to_string(lineno) + ": ";
}

/// Calls `fn(lineno, toks) -> Status` for every line of `text` that holds
/// a token, numbering lines from 1 and skipping the rest per the grammar
/// above. Stops at, and returns, the first error `fn` returns.
template <typename Fn>
Status ForEachTokenLine(std::string_view text, Fn&& fn) {
  std::vector<std::string_view> toks;  // reused across lines
  int lineno = 0;
  while (!text.empty()) {
    const void* nl = std::memchr(text.data(), '\n', text.size());
    const std::size_t len =
        nl ? static_cast<const char*>(nl) - text.data() : text.size();
    const std::string_view line = text.substr(0, len);
    text.remove_prefix(nl ? len + 1 : len);
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    toks.clear();
    for (std::string_view rest = line, tok;
         !(tok = NextToken(&rest)).empty();) {
      toks.push_back(tok);
    }
    if (toks.empty()) continue;
    Status s = fn(lineno, std::span<const std::string_view>(toks));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

/// Replaces `*t` with the interned `keys`; InvalidArgument naming `lineno`
/// for an integer key outside int64_t.
inline Status InternKeys(std::span<const std::string_view> keys, int lineno,
                         Domain* dom, Tuple* t) {
  t->clear();
  for (std::string_view tok : keys) {
    ConstId id = 0;
    if (!TryInternToken(tok, dom, &id)) {
      return InvalidArgument(LinePrefix(lineno) +
                             "integer key out of 64-bit range '" +
                             std::string(tok) + "'");
    }
    t->push_back(id);
  }
  return Status::Ok();
}

/// True iff `text` is re-readable as a single token of the grammar above
/// AND re-interns as the same symbol (not as an integer, a comment, or
/// nothing at all).
inline bool IsDumpableSymbol(std::string_view text) {
  if (text.empty() || text[0] == '#' || LooksLikeInt(text)) return false;
  return std::none_of(text.begin(), text.end(), IsSpace);
}

/// Stages one row per token line of `text` into `rel` through
/// `stage(lineno, toks) -> Status` (which calls StageRow), then folds them
/// with one table layout — also when a line fails, so the relation keeps
/// exactly the rows of the lines before it.
template <Pops P, typename StageFn>
Status StageAndFold(std::string_view text, Relation<P>* rel,
                    StageFn&& stage) {
  rel->ReserveRows(1 + std::count(text.begin(), text.end(), '\n'));
  const uint32_t first = rel->num_rows();
  Status s = ForEachTokenLine(text, stage);
  rel->FoldStaged(first);
  return s;
}

}  // namespace io_internal

/// Loads a POPS relation from TSV text: k key columns then one value
/// column, parsed by `parse_value(std::string_view, &value) -> bool`.
/// Lines that are empty or start with '#' are skipped. Repeated tuples
/// accumulate via ⊕, in file order, exactly as one Merge per line would;
/// the rows are staged and then folded with one row-table layout.
template <Pops P, typename ParseFn>
Status LoadTsv(const std::string& text, Domain* dom, Relation<P>* rel,
               ParseFn&& parse_value) {
  const int arity = rel->arity();
  Tuple t;  // reused across lines; StageRow copies it into the columns
  t.reserve(arity);
  return io_internal::StageAndFold(
      text, rel, [&](int lineno, std::span<const std::string_view> toks) {
        if (static_cast<int>(toks.size()) != arity + 1) {
          return InvalidArgument(io_internal::LinePrefix(lineno) +
                                 "expected " + std::to_string(arity) +
                                 " keys + 1 value, got " +
                                 std::to_string(toks.size()) + " columns");
        }
        Status s =
            io_internal::InternKeys(toks.first(arity), lineno, dom, &t);
        if (!s.ok()) return s;
        typename P::Value v;
        if (!parse_value(toks.back(), &v)) {
          return InvalidArgument(io_internal::LinePrefix(lineno) +
                                 "cannot parse value '" +
                                 std::string(toks.back()) + "'");
        }
        rel->StageRow(t, std::move(v));
        return Status::Ok();
      });
}

/// Loads a Boolean relation: every column is a key, the value is true.
inline Status LoadTsvBool(const std::string& text, Domain* dom,
                          Relation<BoolS>* rel) {
  const int arity = rel->arity();
  Tuple t;  // reused across lines; StageRow copies it into the columns
  t.reserve(arity);
  return io_internal::StageAndFold(
      text, rel, [&](int lineno, std::span<const std::string_view> toks) {
        if (static_cast<int>(toks.size()) != arity) {
          return InvalidArgument(io_internal::LinePrefix(lineno) +
                                 "expected " + std::to_string(arity) +
                                 " key columns");
        }
        Status s = io_internal::InternKeys(toks, lineno, dom, &t);
        if (!s.ok()) return s;
        rel->StageRow(t, true);
        return Status::Ok();
      });
}

namespace io_internal {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parses a whole std::stod token into [lo, hi]. NaN fails the range
/// compare, so it is rejected even when the range is the whole line.
/// std::from_chars parses the common spellings; whatever it does not take
/// whole and cleanly goes to std::stod, which then decides alone: a '+'
/// sign, hex, leading blanks, an error, and any magnitude at or below
/// DBL_MIN — glibc flags those with ERANGE even when they round up to
/// DBL_MIN, so stod rejects them while from_chars does not. The accepted
/// set and every parsed bit pattern are std::stod's.
inline bool ParseDoubleIn(std::string_view s, double lo, double hi,
                          double* out) {
  const char* const end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, *out);
  if (ec == std::errc() && p == end &&
      (*out == 0 || std::fabs(*out) > std::numeric_limits<double>::min())) {
    return *out >= lo && *out <= hi;
  }
  try {
    const std::string str(s);
    std::size_t pos = 0;
    *out = std::stod(str, &pos);
    return pos == str.size() && *out >= lo && *out <= hi;
  } catch (...) {
    return false;
  }
}

}  // namespace io_internal

/// Standard value parsers for the common carriers. ParseDoubleValue takes
/// a whole std::stod token and rejects NaN: no carrier orders it, so ⊕
/// would silently drop the fact (min(∞, NaN) = ∞ = ⊥ on Trop+).
inline bool ParseDoubleValue(std::string_view s, double* out) {
  return io_internal::ParseDoubleIn(s, -io_internal::kInf, io_internal::kInf,
                                   out);
}
/// Trop+ carrier: v >= 0, inf (= ⊥) allowed. A negative weight has no
/// place in Trop+ and makes any cycle through it diverge.
inline bool ParseTropValue(std::string_view s, double* out) {
  return io_internal::ParseDoubleIn(s, 0.0, io_internal::kInf, out);
}
/// Fuzzy and Viterbi carriers: 0 <= v <= 1. Outside it a fuzzy value
/// would be clamped and a Viterbi product would grow without bound.
inline bool ParseUnitValue(std::string_view s, double* out) {
  return io_internal::ParseDoubleIn(s, 0.0, 1.0, out);
}
inline bool ParseUintValue(std::string_view s, uint64_t* out) {
  if (!io_internal::LooksLikeInt(s) || s[0] == '-') return false;
  uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return false;
  *out = v;
  return true;
}
inline bool ParseBoolValue(std::string_view s, bool* out) {
  if (s == "1" || s == "true") {
    *out = true;
    return true;
  }
  if (s == "0" || s == "false") {
    *out = false;
    return true;
  }
  return false;
}

/// Dumps a relation as sorted TSV (keys then value), reading cells
/// straight out of the columnar store in lexicographic row order. Fails
/// with InvalidArgument — instead of silently emitting text that LoadTsv
/// would re-split into the wrong columns — when a key renders as a
/// non-dumpable symbol (contains whitespace, is empty, starts with '#',
/// or spells an integer; see the token grammar above). `*out` is only
/// written on success.
template <Pops P>
Status DumpTsvChecked(const Relation<P>& rel, const Domain& dom,
                      std::string* out) {
  std::string text;
  // Per symbol id: already found dumpable in this call. Sized on the
  // first symbol, so integer-keyed relations never allocate it.
  std::vector<uint8_t> dumpable;
  for (uint32_t row : rel.SortedLiveRows()) {
    for (int p = 0; p < rel.arity(); ++p) {
      const ConstId id = rel.Cell(row, p);
      if (p) text += '\t';
      const std::size_t start = text.size();
      dom.AppendTo(id, &text);
      if (dom.IsInt(id)) continue;
      if (dumpable.empty()) dumpable.assign(dom.size(), 0);
      if (dumpable[id]) continue;
      if (!io_internal::IsDumpableSymbol(
              std::string_view(text).substr(start))) {
        return InvalidArgument("symbol not representable as a TSV token: '" +
                               text.substr(start) + "'");
      }
      dumpable[id] = 1;
    }
    text += '\t';
    text += P::ToString(rel.ValueAt(row));
    text += '\n';
  }
  *out = std::move(text);
  return Status::Ok();
}

/// DumpTsvChecked for callers that treat a non-dumpable symbol as a
/// programming error: fails the process loudly instead of corrupting the
/// round-trip. Use DumpTsvChecked to recover instead.
template <Pops P>
std::string DumpTsv(const Relation<P>& rel, const Domain& dom) {
  std::string out;
  Status s = DumpTsvChecked(rel, dom, &out);
  DLO_CHECK_MSG(s.ok(), "DumpTsv: symbol not representable as a TSV token");
  return out;
}

}  // namespace datalogo

#endif  // DATALOGO_RELATION_IO_H_
