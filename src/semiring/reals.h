// The reals (R, +, ×, 0, 1) — Example 2.2. R is a semiring but is NOT
// naturally ordered (x ⪯ y holds for every x, y), so it is not itself a
// POPS; the paper (and this library) uses it as the base pre-semiring of
// the lifted POPS R⊥ (Sec. 2.5.1) — see lifted.h. Lemma 2.8 proves no POPS
// extension of R can be a semiring.
#ifndef DATALOGO_SEMIRING_REALS_H_
#define DATALOGO_SEMIRING_REALS_H_

#include <cmath>
#include <string>

#include "src/semiring/format.h"

namespace datalogo {

/// (R, +, ×, 0, 1) as a pre-semiring (no order; use Lifted<RealS>).
struct RealS {
  using Value = double;
  static constexpr const char* kName = "R";

  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Plus(Value a, Value b) { return a + b; }
  static Value Times(Value a, Value b) { return a * b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static std::string ToString(Value a) { return FormatDouble(a); }
};

/// (R+, +, ×, 0, 1): the non-negative reals, naturally ordered by ≤.
/// Used by the company-control example (Example 4.3). Not stable.
struct RealPlusS {
  using Value = double;
  static constexpr const char* kName = "R+";
  static constexpr bool kIsSemiring = true;
  static constexpr bool kNaturallyOrdered = true;
  static constexpr bool kIdempotentPlus = false;

  static Value Zero() { return 0.0; }
  static Value One() { return 1.0; }
  static Value Bottom() { return 0.0; }
  static Value Plus(Value a, Value b) { return a + b; }
  static Value Times(Value a, Value b) { return a * b; }
  static bool Eq(Value a, Value b) { return a == b; }
  static bool Leq(Value a, Value b) { return a <= b; }
  static std::string ToString(Value a) { return FormatDouble(a); }
};

}  // namespace datalogo

#endif  // DATALOGO_SEMIRING_REALS_H_
