// datalogo_cli: run a datalog° program from files.
//
//   datalogo_cli PROGRAM.dl --semiring=trop
//       --edb E=edges.tsv --bedb G=flags.tsv [--seminaive] [--advise]
//       [--max-steps=N] [--threads=N]
//       [--index=hash|direct|auto] [--update=BATCH]
//
// Semirings: bool, nat, trop, tropnat, fuzzy, viterbi.
// POPS EDB TSVs carry the value in the last column; Boolean EDB TSVs are
// key-only. Results are printed as sorted TSV per IDB predicate.
// The '# converged, stability index N' line reports EvalResult::steps:
// the stability index under naive evaluation, and under --seminaive the
// group-local rounds summed over the program's reliance groups.
// --threads=N (0 = one per hardware core) and --max-steps=N (>= 1) take
// whole base-10 integers; anything else is a usage error (exit 1), as is
// an --edb/--bedb without a P=FILE spec.
//
// --update=BATCH runs the fixpoint silently, applies the batch through
// Engine::Update (incremental maintenance — no full re-run), and prints
// the maintained tables. Batch grammar, one mutation per line:
//   + PRED key... value     insert/⊕-merge a POPS fact
//   + PRED key...           insert a Boolean-EDB fact
//   - PRED key...           delete a fact (either kind)
// '#' comments and blank lines are skipped.
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/datalogo.h"
#include "src/relation/io.h"

namespace {

using namespace datalogo;

struct CliOptions {
  std::string program_path;
  std::string semiring = "trop";
  std::vector<std::pair<std::string, std::string>> edbs;   // pred=path
  std::vector<std::pair<std::string, std::string>> bedbs;  // pred=path
  bool seminaive = false;
  bool advise = false;
  int max_steps = 100000;
  int threads = 1;  // 0 = one per hardware core; results are identical
  // Index tier (engine.h / relation.h). Output is identical for every
  // tier — the flag exists for benchmarking and the byte-identity smoke
  // test.
  IndexKind index_kind = IndexKind::kAuto;
  // --update=FILE: mutation batch serviced by Engine::Update after the
  // initial fixpoint; the printed tables are the maintained result.
  std::string update_path;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

/// Parses a whole flag value as a base-10 int in [min, INT_MAX]: no sign
/// other than a leading '-', no trailing junk, no overflow.
bool ParseIntFlag(const std::string& flag, const std::string& text, int min,
                  int* out) {
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min) {
    std::fprintf(stderr, "%s expects an integer >= %d, got '%s'\n",
                 flag.c_str(), min, text.c_str());
    return false;
  }
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--semiring=", 0) == 0) {
      opt->semiring = value_of("--semiring=");
    } else if (arg == "--edb" || arg.rfind("--edb=", 0) == 0 ||
               arg == "--bedb" || arg.rfind("--bedb=", 0) == 0) {
      // Spec as the next argument (--edb P=FILE) or inline (--edb=P=FILE).
      const std::string flag = arg.rfind("--bedb", 0) == 0 ? "--bedb" : "--edb";
      if (arg == flag && i + 1 >= argc) {
        std::fprintf(stderr, "%s expects P=FILE\n", flag.c_str());
        return false;
      }
      const std::string spec = arg == flag ? argv[++i] : value_of(flag + "=");
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "%s expects P=FILE, got '%s'\n", flag.c_str(),
                     spec.c_str());
        return false;
      }
      (flag == "--bedb" ? opt->bedbs : opt->edbs)
          .emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--seminaive") {
      opt->seminaive = true;
    } else if (arg == "--advise") {
      opt->advise = true;
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      if (!ParseIntFlag("--max-steps", value_of("--max-steps="), 1,
                        &opt->max_steps)) {
        return false;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!ParseIntFlag("--threads", value_of("--threads="), 0,
                        &opt->threads)) {
        return false;
      }
    } else if (arg.rfind("--index=", 0) == 0) {
      std::string name = value_of("--index=");
      if (name == "hash") {
        opt->index_kind = IndexKind::kHash;
      } else if (name == "direct") {
        opt->index_kind = IndexKind::kDirect;
      } else if (name == "auto") {
        opt->index_kind = IndexKind::kAuto;
      } else {
        std::fprintf(stderr, "unknown index kind: %s\n", name.c_str());
        return false;
      }
    } else if (arg.rfind("--update=", 0) == 0) {
      opt->update_path = value_of("--update=");
    } else if (arg.rfind("--", 0) != 0) {
      opt->program_path = arg;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !opt->program_path.empty();
}

/// Parses one --update batch file into an EdbDelta. Lines:
///   + PRED tok... value   (POPS pred)  |  + PRED tok...   (Boolean pred)
///   - PRED tok...
template <Pops P, typename ParseFn>
bool ParseUpdateBatch(const std::string& text, const Program& prog,
                      Domain* dom, ParseFn&& parse_value,
                      EdbDelta<P>* batch) {
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> toks = io_internal::SplitLine(line);
    if (toks.empty()) continue;
    auto fail = [&](const char* msg) {
      std::fprintf(stderr, "update batch line %d: %s\n", lineno, msg);
      return false;
    };
    if (toks[0] != "+" && toks[0] != "-") {
      return fail("expected '+' or '-'");
    }
    const bool is_add = toks[0] == "+";
    if (toks.size() < 2) return fail("missing predicate");
    const int pred = prog.FindPredicate(toks[1]);
    if (pred < 0) return fail("unknown predicate");
    const PredKind kind = prog.predicate(pred).kind;
    if (kind == PredKind::kIdb) return fail("IDB predicates are derived");
    const int arity = prog.predicate(pred).arity;
    const bool is_bool = kind == PredKind::kBoolEdb;
    const int want = 2 + arity + (is_add && !is_bool ? 1 : 0);
    if (static_cast<int>(toks.size()) != want) {
      return fail("wrong column count for predicate arity");
    }
    Tuple t;
    for (int i = 0; i < arity; ++i) {
      ConstId id = 0;
      if (!io_internal::TryInternToken(toks[2 + i], dom, &id)) {
        return fail("integer key out of 64-bit range");
      }
      t.push_back(id);
    }
    if (is_bool) {
      if (is_add) {
        batch->AddBool(pred, std::move(t));
      } else {
        batch->DeleteBool(pred, std::move(t));
      }
    } else if (is_add) {
      typename P::Value v;
      if (!parse_value(toks.back(), &v)) return fail("cannot parse value");
      batch->Add(pred, std::move(t), std::move(v));
    } else {
      batch->Delete(pred, std::move(t));
    }
  }
  return true;
}

template <NaturallyOrderedSemiring P, typename ParseFn>
int RunAs(const CliOptions& opt, const std::string& text,
          ParseFn&& parse_value) {
  Domain dom;
  auto prog = ParseProgram(text, &dom);
  if (!prog.ok()) {
    std::fprintf(stderr, "%s\n", prog.status().ToString().c_str());
    return 1;
  }
  Status valid = ValidateProgram(prog.value());
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }
  EdbInstance<P> edb(prog.value());
  for (const auto& [pred, path] : opt.edbs) {
    int id = prog.value().FindPredicate(pred);
    if (id < 0 || prog.value().predicate(id).kind != PredKind::kEdb) {
      std::fprintf(stderr, "unknown POPS EDB predicate '%s'\n",
                   pred.c_str());
      return 1;
    }
    std::string tsv;
    if (!ReadFile(path, &tsv)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    Status s = LoadTsv<P>(tsv, &dom, &edb.pops(id), parse_value);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
      return 1;
    }
  }
  for (const auto& [pred, path] : opt.bedbs) {
    int id = prog.value().FindPredicate(pred);
    if (id < 0 || prog.value().predicate(id).kind != PredKind::kBoolEdb) {
      std::fprintf(stderr, "unknown Boolean EDB predicate '%s'\n",
                   pred.c_str());
      return 1;
    }
    std::string tsv;
    if (!ReadFile(path, &tsv)) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    Status s = LoadTsvBool(tsv, &dom, &edb.boolean(id));
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
      return 1;
    }
  }

  if (opt.advise) {
    auto grounded = GroundProgram<P>(prog.value(), edb);
    ConvergenceReport report = Advise(grounded);
    std::printf("# advisor: %s (%s); linear=%d recursive=%d N=%d\n",
                VerdictName(report.verdict), report.explanation.c_str(),
                report.linear, report.recursive, report.num_vars);
  }

  Engine<P> engine(prog.value(), edb,
                   EngineOptions{.num_threads = opt.threads,
                                 .index_kind = opt.index_kind});
  EvalResult<P> result = [&] {
    if constexpr (CompleteDistributiveDioid<P>) {
      if (opt.seminaive) return engine.SemiNaive(opt.max_steps);
      return engine.Naive(opt.max_steps);
    } else {
      return engine.Naive(opt.max_steps);
    }
  }();
  if (!result.converged) {
    std::fprintf(stderr,
                 "did not converge within %d steps (diverging program?)\n",
                 opt.max_steps);
    return 2;
  }
  const IdbInstance<P>* tables = &result.idb;
  IdbInstance<P> maintained(prog.value());
  if (!opt.update_path.empty()) {
    std::string batch_text;
    if (!ReadFile(opt.update_path, &batch_text)) {
      std::fprintf(stderr, "cannot read %s\n", opt.update_path.c_str());
      return 1;
    }
    EdbDelta<P> batch;
    if (!ParseUpdateBatch<P>(batch_text, prog.value(), &dom, parse_value,
                             &batch)) {
      return 1;
    }
    maintained.CopyContentsFrom(result.idb);
    UpdateResult ur = engine.Update(batch, &edb, &maintained, opt.max_steps);
    if (!ur.converged) {
      std::fprintf(stderr, "update did not converge within %d rounds\n",
                   opt.max_steps);
      return 2;
    }
    const char* strategy =
        ur.strategy == UpdateStrategy::kNoop            ? "noop"
        : ur.strategy == UpdateStrategy::kInsertOnly    ? "insert-cascade"
        : ur.strategy == UpdateStrategy::kExactDeletion ? "exact-deletion"
        : ur.strategy == UpdateStrategy::kDred          ? "dred"
                                                        : "recompute";
    std::printf("# update applied via %s, %d rounds, %llu rederived\n",
                strategy, ur.rounds,
                static_cast<unsigned long long>(ur.deleted_rederived));
    tables = &maintained;
  } else {
    std::printf("# converged, stability index %d\n", result.steps);
  }
  for (int pred : prog.value().IdbPredicates()) {
    std::printf("## %s\n%s", prog.value().predicate(pred).name.c_str(),
                DumpTsv(tables->idb(pred), dom).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: datalogo_cli PROGRAM.dl [--semiring=NAME] "
                 "[--edb P=FILE]... [--bedb P=FILE]... [--seminaive] "
                 "[--advise] [--max-steps=N] [--threads=N] "
                 "[--index=hash|direct|auto] [--update=BATCH]\n"
                 "semirings: bool nat trop tropnat fuzzy viterbi\n"
                 "--max-steps >= 1; --threads >= 0 (0 = one per core); the "
                 "stability-index line sums group-local rounds under "
                 "--seminaive\n");
    return 1;
  }
  std::string text;
  if (!ReadFile(opt.program_path, &text)) {
    std::fprintf(stderr, "cannot read %s\n", opt.program_path.c_str());
    return 1;
  }
  const std::string& s = opt.semiring;
  if (s == "trop") {
    return RunAs<TropS>(opt, text, ParseDoubleValue);
  } else if (s == "bool") {
    return RunAs<BoolS>(opt, text, ParseBoolValue);
  } else if (s == "nat") {
    return RunAs<NatS>(opt, text, ParseUintValue);
  } else if (s == "tropnat") {
    return RunAs<TropNatS>(opt, text, ParseUintValue);
  } else if (s == "fuzzy") {
    return RunAs<FuzzyS>(opt, text, ParseDoubleValue);
  } else if (s == "viterbi") {
    return RunAs<ViterbiS>(opt, text, ParseDoubleValue);
  }
  std::fprintf(stderr, "unknown semiring '%s'\n", s.c_str());
  return 1;
}
