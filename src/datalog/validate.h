// Static checks on datalog° programs: vocabulary discipline (heads are
// IDBs, condition atoms are Boolean EDBs, products contain POPS atoms)
// and range restriction / safety, which is what keeps grounded semantics
// domain-independent (Sec. 2.4 discussion of the conditional Φ).
#ifndef DATALOGO_DATALOG_VALIDATE_H_
#define DATALOGO_DATALOG_VALIDATE_H_

#include "src/core/status.h"
#include "src/datalog/ast.h"

namespace datalogo {

/// Validates the program; returns the first violation found.
///
/// Enforced rules:
///  * every rule head is an IDB atom;
///  * condition atoms refer to Boolean EDB predicates;
///  * product atoms refer to POPS EDB or IDB predicates, and only IDB
///    product atoms may be negated (the grounder applies Not to ground
///    IDB atoms only);
///  * per disjunct, every variable occurring in the disjunct or the head
///    is *bound*: it appears in a product atom, in a positive Boolean
///    condition atom, or is chained by `=` conditions to a constant or a
///    bound variable.
Status ValidateProgram(const Program& prog);

/// ValidateProgram, plus what the relational engine (engine.h) cannot
/// evaluate: a negated product atom. Negated IDB atoms (win-move's
/// `!W(Y)`) need the grounded engine (grounder.h), so a caller that runs
/// only Engine, such as datalogo_cli, validates with this.
Status ValidateForEngine(const Program& prog);

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_VALIDATE_H_
