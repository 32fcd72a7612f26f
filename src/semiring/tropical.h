// The tropical semiring Trop+ = (R+ ∪ {∞}, min, +, ∞, 0) — Examples 1.1 and
// 2.2 — plus the max-plus ("arctic"), Viterbi and fuzzy dioids. Trop+ is
// 0-stable (min(0, x) = 0) and a complete distributive dioid whose ⊖ is
// Eq. (6); it powers APSP/SSSP. Max-plus is an idempotent dioid that is NOT
// stable (longest paths diverge on cyclic graphs), used as a divergence
// specimen in the tests.
#ifndef DATALOGO_SEMIRING_TROPICAL_H_
#define DATALOGO_SEMIRING_TROPICAL_H_

#include <algorithm>
#include <limits>
#include <string>

#include "src/semiring/format.h"

namespace datalogo {

/// Trop+ = (R+ ∪ {∞}, min, +, ∞, 0). The POPS order is the *reverse*
/// numeric order: a ⊑ b iff b ≤ a (Example 2.2).
struct TropS {
  using Value = double;
  static constexpr const char* kName = "Trop+";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = true;

  static Value Inf() { return std::numeric_limits<double>::infinity(); }
  static Value Zero() { return Inf(); }
  static Value One() { return 0.0; }
  static Value Bottom() { return Inf(); }
  static Value Plus(Value a, Value b) { return std::min(a, b); }
  static Value Times(Value a, Value b) { return a + b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return b <= a; }
  /// Eq. (6): v ⊖ u = v if v < u, else ∞.
  static Value Minus(Value v, Value u) { return v < u ? v : Inf(); }
  static std::string ToString(Value a) {
    if (a == Inf()) return "inf";
    return FormatDouble(a);
  }
};

/// Min-plus over N ∪ {∞}: hop counts / BFS distances. Same laws as Trop+.
struct TropNatS {
  using Value = uint64_t;
  static constexpr Value kInf = std::numeric_limits<uint64_t>::max();
  static constexpr const char* kName = "TropN";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = true;

  static Value Zero() { return kInf; }
  static Value One() { return 0; }
  static Value Bottom() { return kInf; }
  static Value Plus(Value a, Value b) { return std::min(a, b); }
  static Value Times(Value a, Value b) {
    if (a == kInf || b == kInf) return kInf;
    Value s = a + b;
    return s < a ? kInf : s;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return b <= a; }
  static Value Minus(Value v, Value u) { return v < u ? v : kInf; }
  static std::string ToString(Value a) {
    return a == kInf ? "inf" : std::to_string(a);
  }
};

/// Max-plus (arctic) dioid (R ∪ {−∞}, max, +, −∞, 0). Idempotent and
/// naturally ordered but NOT stable: any c > 0 has unbounded powers.
struct MaxPlusS {
  using Value = double;
  static constexpr const char* kName = "MaxPlus";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = true;

  static Value NegInf() { return -std::numeric_limits<double>::infinity(); }
  static Value Zero() { return NegInf(); }
  static Value One() { return 0.0; }
  static Value Bottom() { return NegInf(); }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) {
    if (a == NegInf() || b == NegInf()) return NegInf();
    return a + b;
  }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return a <= b; }
  static Value Minus(Value v, Value u) { return v > u ? v : NegInf(); }
  static std::string ToString(Value a) {
    if (a == NegInf()) return "-inf";
    return FormatDouble(a);
  }
};

/// The Viterbi dioid ([0,1], max, ×, 0, 1): most-probable paths. 0-stable.
struct ViterbiS {
  using Value = double;
  static constexpr const char* kName = "Viterbi";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = true;

  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Bottom() { return 0.0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return a * b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return a <= b; }
  static Value Minus(Value v, Value u) { return v > u ? v : 0.0; }
  static std::string ToString(Value a) { return FormatDouble(a); }
};

/// The fuzzy dioid ([0,1], max, min, 0, 1): widest-bottleneck paths. A
/// distributive lattice, hence 0-stable (Sec. 5.1 discussion).
struct FuzzyS {
  using Value = double;
  static constexpr const char* kName = "Fuzzy";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = true;

  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Bottom() { return 0.0; }
  static Value Plus(Value a, Value b) { return std::max(a, b); }
  static Value Times(Value a, Value b) { return std::min(a, b); }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return a <= b; }
  static Value Minus(Value v, Value u) { return v > u ? v : 0.0; }
  static std::string ToString(Value a) { return FormatDouble(a); }
};

}  // namespace datalogo

#endif  // DATALOGO_SEMIRING_TROPICAL_H_
