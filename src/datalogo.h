// Umbrella header for the datalogo library: datalog over (pre-)semirings.
//
// Quick tour (see README.md for a walkthrough):
//   Domain dom;
//   auto prog = ParseProgram("idb T/2. T(X,Y) :- E(X,Y) ; T(X,Z)*E(Z,Y).",
//                            &dom).value();
//   EdbInstance<TropS> edb(prog);     // APSP when P = Trop+
//   ... load E ...
//   Engine<TropS> engine(prog, edb);
//   auto result = engine.SemiNaive(/*max_steps=*/1000);
#ifndef DATALOGO_DATALOGO_H_
#define DATALOGO_DATALOGO_H_

#include "src/core/status.h"
#include "src/datalog/advisor.h"
#include "src/datalog/ast.h"
#include "src/datalog/engine.h"
#include "src/datalog/grounder.h"
#include "src/datalog/instance.h"
#include "src/datalog/join_plan.h"
#include "src/datalog/loader.h"
#include "src/datalog/parser.h"
#include "src/datalog/reliance.h"
#include "src/datalog/validate.h"
#include "src/fixpoint/fixpoint.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/workloads.h"
#include "src/poly/kleene.h"
#include "src/poly/linear_lfp.h"
#include "src/poly/matrix.h"
#include "src/poly/newton.h"
#include "src/poly/poly_system.h"
#include "src/poly/polynomial.h"
#include "src/relation/relation.h"
#include "src/semiring/boolean.h"
#include "src/semiring/classification.h"
#include "src/semiring/completed.h"
#include "src/semiring/core_semiring.h"
#include "src/semiring/deletion.h"
#include "src/semiring/four.h"
#include "src/semiring/lifted.h"
#include "src/semiring/naturals.h"
#include "src/semiring/powerset.h"
#include "src/semiring/product.h"
#include "src/semiring/provenance.h"
#include "src/semiring/reals.h"
#include "src/semiring/stability.h"
#include "src/semiring/three.h"
#include "src/semiring/traits.h"
#include "src/semiring/trop_eta.h"
#include "src/semiring/trop_p.h"
#include "src/semiring/tropical.h"
#include "src/wf/wellfounded.h"

#endif  // DATALOGO_DATALOGO_H_
