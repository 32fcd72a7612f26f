// The paper's definitional semantics as a test oracle for the relational
// engine: ground the program over the active domain (Sec. 4.3), run
// Algorithm 1 on the polynomial system, and decode the least fixpoint
// back into an IDB instance. Shares no join, index or scheduling code
// with Engine, so agreement is an independent check.
#ifndef DATALOGO_TESTS_GROUNDED_ORACLE_H_
#define DATALOGO_TESTS_GROUNDED_ORACLE_H_

#include <optional>

#include "src/datalogo.h"

namespace datalogo {

/// The grounded least fixpoint of `prog` over `edb`, or nullopt if the
/// polynomial iteration did not converge within `max_steps`.
template <Pops P>
std::optional<IdbInstance<P>> GroundedFixpoint(const Program& prog,
                                               const EdbInstance<P>& edb,
                                               int max_steps = 100000) {
  auto grounded = GroundProgram<P>(prog, edb);
  auto poly = grounded.NaiveIterate(max_steps);
  if (!poly.converged) return std::nullopt;
  return grounded.Decode(poly.values);
}

}  // namespace datalogo

#endif  // DATALOGO_TESTS_GROUNDED_ORACLE_H_
