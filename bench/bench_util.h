// Shared helpers for the experiment benches: each bench binary first
// regenerates its paper artifact (table/series) on stdout, then runs the
// google-benchmark timings.
#ifndef DATALOGO_BENCH_BENCH_UTIL_H_
#define DATALOGO_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "src/datalogo.h"

namespace datalogo {

/// Prints the standard experiment banner.
inline void Banner(const char* experiment, const char* artifact) {
  std::printf("\n================================================\n");
  std::printf("%s\n  reproduces: %s\n", experiment, artifact);
  std::printf("================================================\n");
}

/// True when the bench should run in CI smoke mode (small sizes, one
/// timing rep): export DATALOGO_BENCH_SMOKE=1.
inline bool BenchSmokeMode() {
  const char* v = std::getenv("DATALOGO_BENCH_SMOKE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

/// Thread counts the engine benches sweep (one BENCH_*.json row per
/// count). DATALOGO_THREADS overrides as a comma-separated list (e.g.
/// "1,4"); the default sweep is 1/2/4/8, trimmed to 1/4 in smoke mode.
inline std::vector<int> BenchThreadCounts() {
  std::vector<int> out;
  if (const char* v = std::getenv("DATALOGO_THREADS");
      v != nullptr && v[0] != '\0') {
    std::stringstream ss(v);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      int t = std::atoi(tok.c_str());
      if (t >= 1) out.push_back(t);
    }
  }
  if (out.empty()) {
    out = BenchSmokeMode() ? std::vector<int>{1, 4}
                           : std::vector<int>{1, 2, 4, 8};
  }
  return out;
}

/// Wall-clock milliseconds of one `fn()` run.
template <typename F>
double WallMs(F&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

/// Minimal emitter for the machine-readable BENCH_<name>.json artifacts:
/// one flat metadata object plus a "rows" array of flat objects, so a
/// trajectory script can diff perf numbers across commits without
/// scraping stdout tables.
class BenchJson {
 public:
  explicit BenchJson(const std::string& bench) : bench_(bench) {}

  BenchJson& Meta(const char* key, const std::string& value) {
    meta_ << ",\n  \"" << key << "\": \"" << Escaped(value) << "\"";
    return *this;
  }
  BenchJson& MetaBool(const char* key, bool value) {
    meta_ << ",\n  \"" << key << "\": " << (value ? "true" : "false");
    return *this;
  }
  BenchJson& MetaInt(const char* key, uint64_t value) {
    meta_ << ",\n  \"" << key << "\": " << value;
    return *this;
  }

  BenchJson& BeginRow() {
    if (any_row_) rows_ << ",";
    rows_ << "\n    {";
    first_field_ = true;
    any_row_ = true;
    return *this;
  }
  BenchJson& Str(const char* key, const std::string& v) {
    Key(key) << "\"" << Escaped(v) << "\"";
    return *this;
  }
  BenchJson& Int(const char* key, uint64_t v) {
    Key(key) << v;
    return *this;
  }
  BenchJson& Num(const char* key, double v) {
    Key(key) << v;
    return *this;
  }
  BenchJson& EndRow() {
    rows_ << "}";
    return *this;
  }

  /// Writes the artifact; returns false (and warns) on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::string out = "{\n  \"bench\": \"" + bench_ + "\"" + meta_.str() +
                      ",\n  \"rows\": [" + rows_.str() + "\n  ]\n}\n";
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  /// JSON string escaping: backslash, quote, and control characters.
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
    return out;
  }

  std::ostringstream& Key(const char* key) {
    if (!first_field_) rows_ << ", ";
    first_field_ = false;
    rows_ << "\"" << key << "\": ";
    return rows_;
  }

  std::string bench_;
  std::ostringstream meta_;
  std::ostringstream rows_;
  bool any_row_ = false;
  bool first_field_ = true;
};

/// Journal spelling of the engine's index-tier knob.
inline const char* IndexKindName(IndexKind k) {
  switch (k) {
    case IndexKind::kHash:
      return "hash";
    case IndexKind::kDirect:
      return "direct";
    case IndexKind::kAuto:
      return "auto";
  }
  return "?";
}

/// Host metadata for every BENCH_*.json: hardware concurrency (the PR-5
/// single-core-host caveat, machine-readable) and the SIMD instruction
/// set the binary's vectorized scan paths compile to.
inline void AddHostMeta(BenchJson* json) {
  json->MetaInt("nproc", std::thread::hardware_concurrency());
  json->Meta("simd_isa", simd::IsaName());
}

/// Shared emitter for the BENCH_<name>.json perf journals: for each n,
/// each engine, and each thread count in BenchThreadCounts() (the
/// DATALOGO_THREADS knob), times `reps` evaluations — a fresh Engine per
/// rep,
/// so every journaled counter describes exactly the one run whose wall
/// time is reported (the best rep) rather than mixing best-of wall with
/// lifetime-accumulated index counters. Works over any naturally ordered
/// semiring; the seminaive rows are emitted only when P supports ⊖
/// (e.g. the Naturals lack it — those workloads journal naive rows).
template <NaturallyOrderedSemiring P, typename MakeProgram,
          typename MakeGraph, typename Lift>
void WriteEngineJson(const std::string& bench_name,
                     const char* workload_desc, MakeProgram&& make_program,
                     MakeGraph&& make_graph, Lift&& lift,
                     std::initializer_list<int> sizes) {
  const bool smoke = BenchSmokeMode();
  const int reps = smoke ? 1 : 3;
  const std::vector<int> thread_counts = BenchThreadCounts();
  BenchJson json(bench_name);
  json.MetaBool("smoke", smoke);
  json.Meta("workload", workload_desc);
  AddHostMeta(&json);
  for (int n : sizes) {
    Domain dom;
    Program prog = make_program(&dom).value();
    Graph g = make_graph(n);
    std::vector<ConstId> ids = InternVertices(n, &dom);
    EdbInstance<P> edb(prog);
    LoadEdges<P>(g, ids, lift, &edb.pops(prog.FindPredicate("E")));
    for (bool semi : {false, true}) {
      if (semi && !CompleteDistributiveDioid<P>) continue;
      for (int threads : thread_counts) {
        double best_ms = -1.0;
        EvalResult<P> best{IdbInstance<P>(prog)};
        uint64_t builds = 0, hits = 0, idb_builds = 0, idb_hits = 0;
        uint64_t groups = 0, group_iters = 0, skipped = 0;
        uint64_t incr_appends = 0, hash_probes = 0, direct_probes = 0;
        uint64_t join_batched = 0;
        const EngineOptions opts{.num_threads = threads};
        for (int rep = 0; rep < reps; ++rep) {
          Engine<P> engine(prog, edb, opts);
          EvalResult<P> r{IdbInstance<P>(prog)};
          double ms = WallMs([&] {
            if constexpr (CompleteDistributiveDioid<P>) {
              r = semi ? engine.SemiNaive(1 << 20) : engine.Naive(1 << 20);
            } else {
              r = engine.Naive(1 << 20);
            }
          });
          if (best_ms < 0 || ms < best_ms) {
            best_ms = ms;
            best = std::move(r);
            builds = engine.index_builds();
            hits = engine.index_hits();
            idb_builds = engine.idb_index_builds();
            idb_hits = engine.idb_index_hits();
            groups = static_cast<uint64_t>(engine.reliance().num_groups());
            group_iters = engine.group_iterations();
            skipped = engine.rules_skipped();
            incr_appends = engine.idx_incremental_appends();
            hash_probes = engine.hash_probes();
            direct_probes = engine.direct_probes();
            join_batched = engine.join_batched_rows();
          }
        }
        json.BeginRow()
            .Str("engine", semi ? "seminaive" : "naive")
            .Int("n", static_cast<uint64_t>(n))
            .Int("threads", static_cast<uint64_t>(threads))
            .Num("wall_ms", best_ms)
            .Int("iterations", static_cast<uint64_t>(best.steps))
            .Int("work", best.work)
            .Int("index_builds", builds)
            .Int("index_hits", hits)
            .Int("idb_index_builds", idb_builds)
            .Int("idb_index_hits", idb_hits)
            .Int("groups", groups)
            .Int("group_iterations", group_iters)
            .Int("rules_skipped", skipped)
            .Str("index_kind", IndexKindName(opts.index_kind))
            .Int("join_batched_rows", join_batched)
            .Int("idx_incremental_appends", incr_appends)
            .Int("hash_probes", hash_probes)
            .Int("direct_probes", direct_probes)
            .EndRow();
      }
    }
  }
  json.Write("BENCH_" + bench_name + ".json");
}

/// Builds the APSP/TC program over any POPS.
inline Result<Program> ApspProgram(Domain* dom) {
  return ParseProgram(R"(
    edb E/2.
    idb T/2.
    T(X,Y) :- E(X,Y) ; T(X,Z) * E(Z,Y).
  )",
                      dom);
}

/// Builds the SSSP program (source = vertex "v0").
inline Result<Program> SsspProgram(Domain* dom) {
  return ParseProgram(R"(
    edb E/2.
    idb L/1.
    L(X) :- [X = v0] ; L(Z) * E(Z, X).
  )",
                      dom);
}

}  // namespace datalogo

#endif  // DATALOGO_BENCH_BENCH_UTIL_H_
