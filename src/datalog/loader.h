// Helpers to load graph workloads and update batches into EDB instances.
#ifndef DATALOGO_DATALOG_LOADER_H_
#define DATALOGO_DATALOG_LOADER_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/status.h"
#include "src/datalog/ast.h"
#include "src/datalog/instance.h"
#include "src/graph/graph.h"
#include "src/graph/workloads.h"
#include "src/relation/domain.h"
#include "src/relation/io.h"

namespace datalogo {

/// Interns vertices 0..n-1 as symbols `prefix0`, `prefix1`, …
inline std::vector<ConstId> InternVertices(int n, Domain* dom,
                                           const std::string& prefix = "v") {
  std::vector<ConstId> ids;
  ids.reserve(n);
  for (int i = 0; i < n; ++i) {
    ids.push_back(dom->InternSymbol(prefix + std::to_string(i)));
  }
  return ids;
}

/// Loads graph edges into a binary POPS relation; `value_of` maps an Edge
/// to its P-value (e.g. TropS: the weight; BoolS: true).
template <Pops P, typename F>
void LoadEdges(const Graph& g, const std::vector<ConstId>& ids, F&& value_of,
               Relation<P>* rel) {
  for (const Edge& e : g.edges()) {
    rel->Merge({ids[e.src], ids[e.dst]}, value_of(e));
  }
}

/// Loads graph edges into a Boolean EDB relation.
inline void LoadEdgesBool(const Graph& g, const std::vector<ConstId>& ids,
                          Relation<BoolS>* rel) {
  for (const Edge& e : g.edges()) {
    rel->Set({ids[e.src], ids[e.dst]}, true);
  }
}

/// Interns the vertex names of a paper figure.
inline std::vector<ConstId> InternNamed(const NamedGraph& g, Domain* dom) {
  std::vector<ConstId> ids;
  ids.reserve(g.names.size());
  for (const std::string& n : g.names) ids.push_back(dom->InternSymbol(n));
  return ids;
}

/// Loads a paper figure's edges into a Boolean EDB relation.
inline void LoadNamedEdgesBool(const NamedGraph& g, Domain* dom,
                               Relation<BoolS>* rel) {
  for (const auto& [s, t] : g.edges) {
    rel->Set({dom->InternSymbol(s), dom->InternSymbol(t)}, true);
  }
}

/// Loads a paper figure's weighted edges into a POPS relation.
template <Pops P, typename F>
void LoadNamedEdges(const NamedGraph& g, Domain* dom, F&& value_of_weight,
                    Relation<P>* rel) {
  for (const auto& [s, t] : g.edges) {
    auto it = g.edge_weights.find({s, t});
    double w = it == g.edge_weights.end() ? 1.0 : it->second;
    rel->Merge({dom->InternSymbol(s), dom->InternSymbol(t)},
               value_of_weight(w));
  }
}

/// Parses an update batch (datalogo_cli --update) into `*batch`, one
/// mutation per line:
///   + PRED key... value     insert/⊕-merge a POPS fact
///   + PRED key...           insert a Boolean-EDB fact
///   - PRED key...           delete a fact (either kind)
/// Lines are cut, tokenized and skipped as by LoadTsv (relation/io.h).
/// Returns InvalidArgument naming the line of the first bad mutation;
/// `*batch` then holds the mutations of the lines before it.
template <Pops P, typename ParseFn>
Status LoadUpdateBatch(const std::string& text, const Program& prog,
                       Domain* dom, ParseFn&& parse_value,
                       EdbDelta<P>* batch) {
  std::string scratch;  // reused: FindPredicate takes a string
  return io_internal::ForEachTokenLine(
      text, [&](int lineno, std::span<const std::string_view> toks) {
        auto fail = [&](const char* msg) {
          return InvalidArgument(io_internal::LinePrefix(lineno) + msg);
        };
        if (toks[0] != "+" && toks[0] != "-") {
          return fail("expected '+' or '-'");
        }
        const bool is_add = toks[0] == "+";
        if (toks.size() < 2) return fail("missing predicate");
        scratch.assign(toks[1]);
        const int pred = prog.FindPredicate(scratch);
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
        Status s =
            io_internal::InternKeys(toks.subspan(2, arity), lineno, dom, &t);
        if (!s.ok()) return s;
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
        return Status::Ok();
      });
}

}  // namespace datalogo

#endif  // DATALOGO_DATALOG_LOADER_H_
