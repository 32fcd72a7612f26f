// The step bound of the paper's convergence theorem as a test check. On a
// 0-stable core (CoreStability<P>::kP == 0) naive evaluation converges
// within N steps, N the number of ground IDB atoms (Thm 5.12(2)); atoms
// that stay ⊥ never move, so N may be taken as the converged run's final
// support. `Naive` does not count its confirming application (the one
// that finds F(J) = J), so its bound is steps ≤ support. `SemiNaive`
// counts every group's seed and every differential round that runs,
// including the round whose δ comes out empty, so it may spend one more
// step per reliance group: steps ≤ support + groups.
#ifndef DATALOGO_TESTS_STEP_BOUND_H_
#define DATALOGO_TESTS_STEP_BOUND_H_

#include <gtest/gtest.h>

#include <cstddef>

#include "src/datalogo.h"

namespace datalogo {

/// Checks the step bound above on a converged run of `prog` (`semi`:
/// the run was SemiNaive). A no-op on carriers whose core is not
/// 0-stable and on runs that did not converge.
template <Pops P>
void ExpectStepBound(const Program& prog, const EvalResult<P>& run,
                     bool semi) {
  if constexpr (CoreStability<P>::kP == 0) {
    if (!run.converged) return;
    const std::size_t support = run.idb.TotalSupport();
    const std::size_t groups =
        semi ? static_cast<std::size_t>(BuildRelianceGroups(prog).num_groups())
             : 0;
    EXPECT_LE(static_cast<std::size_t>(run.steps), support + groups)
        << (semi ? "SemiNaive" : "Naive") << " over " << P::kName
        << ": support " << support << ", groups " << groups;
  }
}

}  // namespace datalogo

#endif  // DATALOGO_TESTS_STEP_BOUND_H_
