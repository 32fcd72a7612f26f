// The key space D (Sec. 2.3): an interning table for the constants that
// appear in EDBs and programs. Constants are symbols or 64-bit integers;
// both intern to dense ConstId handles used inside tuples.
#ifndef DATALOGO_RELATION_DOMAIN_H_
#define DATALOGO_RELATION_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace datalogo {

/// Dense handle for an interned constant.
using ConstId = uint32_t;

/// Interning table for the key space D. Not thread-safe; one Domain per
/// program instance.
class Domain {
 public:
  /// Interns a symbolic constant (idempotent). Looking up a known symbol
  /// copies nothing.
  ConstId InternSymbol(std::string_view name);

  /// Interns an integer constant (idempotent).
  ConstId InternInt(int64_t value);

  /// Number of interned constants (= |ADom| once loading is complete).
  std::size_t size() const { return entries_.size(); }

  /// True if the constant is an integer.
  bool IsInt(ConstId id) const;

  /// The integer payload, or nullopt for symbols.
  std::optional<int64_t> AsInt(ConstId id) const;

  /// Printable form ("a", "42", …).
  std::string ToString(ConstId id) const;

  /// Appends ToString(id) to `*out` without building a temporary string.
  void AppendTo(ConstId id, std::string* out) const;

  /// Looks up a symbol without interning.
  std::optional<ConstId> FindSymbol(std::string_view name) const;

  /// All interned ids, in interning order.
  std::vector<ConstId> AllIds() const;

 private:
  struct Entry {
    bool is_int;
    std::string symbol;
    int64_t value;
  };
  // Transparent hash: symbol_index_ is probed with string_views.
  struct SymbolHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::vector<Entry> entries_;
  std::unordered_map<std::string, ConstId, SymbolHash, std::equal_to<>>
      symbol_index_;
  std::unordered_map<int64_t, ConstId> int_index_;
};

}  // namespace datalogo

#endif  // DATALOGO_RELATION_DOMAIN_H_
