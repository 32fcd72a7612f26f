// Concepts describing the algebraic structures of the paper (Section 2):
// pre-semirings, semirings, POPS (partially ordered pre-semirings), and
// dioids with a difference operator (Section 6).
//
// A structure is modeled as a stateless "tag" type S exposing:
//   using Value = ...;                 the carrier
//   static Value Zero();               additive identity 0
//   static Value One();                multiplicative identity 1
//   static Value Plus(a, b);           ⊕
//   static Value Times(a, b);          ⊗
//   static bool  Eq(a, b);             value equality
//   static std::string ToString(a);
//   static constexpr const char* kName;
// A POPS additionally exposes the partial order ⊑ and its minimum ⊥:
//   static Value Bottom();
//   static bool  Leq(a, b);            a ⊑ b
// and the classification flags used to select algorithms:
//   static constexpr bool kIsSemiring;        absorption 0 ⊗ x = 0 holds
//   static constexpr bool kNaturallyOrdered;  ⊑ is the natural order, ⊥ = 0
//   static constexpr bool kIdempotentPlus;    a ⊕ a = a
// A complete distributive dioid (Def. 6.2) additionally provides
//   static Value Minus(b, a);          b ⊖ a  (Eq. 58)
#ifndef DATALOGO_SEMIRING_TRAITS_H_
#define DATALOGO_SEMIRING_TRAITS_H_

#include <concepts>
#include <string>

namespace datalogo {

/// A commutative pre-semiring (Def. 2.1) without an order.
template <typename S>
concept PreSemiring = requires(const typename S::Value& a,
                               const typename S::Value& b) {
  typename S::Value;
  { S::Zero() } -> std::convertible_to<typename S::Value>;
  { S::One() } -> std::convertible_to<typename S::Value>;
  { S::Plus(a, b) } -> std::convertible_to<typename S::Value>;
  { S::Times(a, b) } -> std::convertible_to<typename S::Value>;
  { S::Eq(a, b) } -> std::convertible_to<bool>;
  { S::ToString(a) } -> std::convertible_to<std::string>;
  { S::kName } -> std::convertible_to<const char*>;
};

/// A partially ordered pre-semiring (Def. 2.3) with minimum element ⊥.
template <typename P>
concept Pops = PreSemiring<P> && requires(const typename P::Value& a,
                                          const typename P::Value& b) {
  { P::Bottom() } -> std::convertible_to<typename P::Value>;
  { P::Leq(a, b) } -> std::convertible_to<bool>;
  { P::kIsSemiring } -> std::convertible_to<bool>;
  { P::kNaturallyOrdered } -> std::convertible_to<bool>;
  { P::kIdempotentPlus } -> std::convertible_to<bool>;
};

/// A POPS that is a naturally ordered semiring; the support-based relational
/// engine is sound exactly for these (⊥ = 0 and 0 is absorbing, so absent
/// tuples can never influence a result).
template <typename P>
concept NaturallyOrderedSemiring =
    Pops<P> && P::kIsSemiring && P::kNaturallyOrdered;

/// A POPS whose addition is idempotent (a dioid, Section 6.1).
template <typename P>
concept DioidPops = Pops<P> && P::kIdempotentPlus;

/// A complete distributive dioid (Def. 6.2) exposing the difference
/// operator b ⊖ a of Eq. (58); required by semi-naive evaluation.
template <typename P>
concept CompleteDistributiveDioid =
    DioidPops<P> && requires(const typename P::Value& a,
                             const typename P::Value& b) {
  { P::Minus(b, a) } -> std::convertible_to<typename P::Value>;
};

/// Convenience: n-fold product a^k (a^0 = 1).
template <PreSemiring S>
typename S::Value Pow(const typename S::Value& a, int k) {
  typename S::Value result = S::One();
  for (int i = 0; i < k; ++i) result = S::Times(result, a);
  return result;
}

/// Convenience: sum of a list of values (empty sum = 0).
template <PreSemiring S>
typename S::Value Sum(const std::initializer_list<typename S::Value>& vs) {
  typename S::Value result = S::Zero();
  for (const auto& v : vs) result = S::Plus(result, v);
  return result;
}

}  // namespace datalogo

#endif  // DATALOGO_SEMIRING_TRAITS_H_
