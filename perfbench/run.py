#!/usr/bin/env python3
"""End-to-end benchmark for datalogo (see README.md in this directory).

    python3 perfbench/run.py --workload apsp_closure --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
datalogo_cli and perfbench_runner under .bench_build/perfbench; later runs
only rebuild what changed. Inputs are generated from --seed, every output
is checked against a reference computed here, outside the engine, and the
last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Progress, host metadata and errors go to stderr; the full record of a run
(samples, host, spans) is written to .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import heapq
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXAMPLES = ROOT / "examples" / "data"
RUNNER = BUILD / "perfbench_runner"
PROBE = BUILD / "perfbench_calibrate"
CLI = BUILD / "datalogo" / "datalogo_cli"

# Only these flags reach datalogo_cli, so the benchmark keeps running when
# engine knobs (--scheduler, --index, --scan, --values, --threads) go away.
SSSP_PROGRAM = "edb S/1.\nedb E/2.\nidb D/1.\nD(Y) :- S(Y) ; D(X) * E(X,Y).\n"

# Churn: ops per cycle. The first half of a cycle deletes 1% of the start
# edges and inserts 1% fresh edges per op; the second half undoes those
# ops in reverse order, so the EDB is back at its start every CHURN_CYCLE
# ops and the run's final tables are known in advance.
CHURN_CYCLE = 8
CHURN_CYCLES_IN_FILE = 20  # about what a run applies
CHURN_SETUPS = 15
CLI_WARMUPS = 9

# Host-speed normalization (README.md): perfbench_calibrate's two kernel
# times at the reference host speed. They are fixed, so normalized times
# compare across commits and runs; a sample's slowdown is the geometric
# mean of its kernel times over these.
REF_ALU_NS = 3.0e6
REF_CHASE_NS = 3.5e6

# The centre of an op-time distribution is given as its trimmed mean: CLI
# jobs fall into a fast and a slow mode about 1.4x apart at random (where
# a process's memory lands), and a median near the middle jumps between
# them as their shares shift from run to run. The tail is given in CPU
# time: the wall time's tail on a shared host is dominated by time the
# hypervisor takes from the guest. The run record keeps the medians and
# the wall p90.
END_TO_END = [
    ("op_norm_ms.tmean", "ms"),
    ("op_cpu_norm_ms.tmean", "ms"), ("op_cpu_norm_ms.p90", "ms"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
]

PER_LAYER = [
    ("parse.ms", "ms"),
    ("load.ms", "ms"), ("load.rows", "count"), ("load.ns_per_row", "ns"),
    ("domain.constants", "count"),
    ("compile.ms", "ms"),
    ("fixpoint.ms", "ms"), ("fixpoint.steps", "count"),
    ("fixpoint.work", "count"), ("fixpoint.ns_per_work", "ns"),
    ("index.builds", "count"), ("index.hits", "count"),
    ("index.hit_ratio", "share"), ("index.idb_builds", "count"),
    ("index.idb_hits", "count"), ("index.incremental_appends", "count"),
    ("index.hash_probes", "count"), ("index.direct_probes", "count"),
    ("index.edb_scan_rows", "count"),
    ("join.batched_rows", "count"), ("join.batched_share", "share"),
    ("values.batched", "count"), ("values.batched_share", "share"),
    ("sched.group_iterations", "count"), ("sched.rules_skipped", "count"),
    ("dump.ms", "ms"), ("dump.rows", "count"), ("dump.bytes", "B"),
    ("dump.ns_per_row", "ns"),
    ("update.delete_share", "share"), ("update.insert_share", "share"),
    ("update.delete_work", "count"), ("update.insert_work", "count"),
    ("update.rounds", "count"), ("update.rederived", "count"),
    ("update.recompute_share", "share"), ("update.work_vs_recompute", "ratio"),
    ("trace.outside_ms", "ms"), ("trace.overhead_ms", "ms"),
]

# Engine counter (runner.cc getter name) -> per-layer metric.
COUNTER_METRICS = {
    "index_builds": "index.builds", "index_hits": "index.hits",
    "idb_index_builds": "index.idb_builds", "idb_index_hits": "index.idb_hits",
    "idx_incremental_appends": "index.incremental_appends",
    "hash_probes": "index.hash_probes", "direct_probes": "index.direct_probes",
    "edb_index_scan_rows": "index.edb_scan_rows",
    "join_batched_rows": "join.batched_rows",
    "values_batched": "values.batched",
    "group_iterations": "sched.group_iterations",
    "rules_skipped": "sched.rules_skipped",
}

# Span name -> layer whose self time it counts toward.
SPAN_LAYER = {"parse": "parse", "validate": "parse", "load": "load",
              "compile": "compile", "fixpoint": "fixpoint", "dump": "dump"}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------ generators

def random_edges(rng, n, degree, weight):
    """n * degree edges (u, v, w): each vertex of 0..n-1 gets `degree`
    distinct random successors other than itself."""
    out = []
    for u in range(n):
        succ = rng.sample(range(n - 1), degree)
        out += [(u, v + (v >= u), weight(rng)) for v in sorted(succ)]
    return out


def relabeled(rng, n, edges):
    """The same graph under a random renaming of its vertices, with its
    rows in random order: (renaming, edges)."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v], w) for u, v, w in edges]
    rng.shuffle(out)
    return perm, out


def workload_graph(workload, rng, n, degree, weight):
    """A CLI workload's graph: one fixed random graph per workload, which
    the seed renames and reorders. Its shape — and with it the stability
    index and the work of an op — is the same for every seed, while the
    files the program reads differ (names, interning order, row order).
    The shape of random graphs of this size moves the op time by up to a
    fifth from seed to seed, which would hide changes of that size."""
    base = random_edges(random.Random(workload), n, degree, weight)
    return relabeled(rng, n, base)


def trop_weight(rng):
    return rng.randint(1, 20)


def fuzzy_weight(rng):
    return rng.randint(1, 100) / 100


def sym(v):
    return "v%d" % v


def write_tsv(path, rows):
    with open(path, "w") as f:
        f.writelines("\t".join(str(c) for c in row) + "\n" for row in rows)


def churn_ops(rng, n, edges, cycles):
    """(deletes, inserts) edge lists per op; see CHURN_CYCLE."""
    start = {(u, v): w for u, v, w in edges}
    k = max(1, len(edges) // 100)
    half = CHURN_CYCLE // 2
    ops = []
    for _ in range(cycles):
        pool = rng.sample(sorted(start), k * half)
        dels = [[(u, v, start[(u, v)]) for u, v in pool[j * k:(j + 1) * k]]
                for j in range(half)]
        taken = set(start)  # start edges stay off-limits for fresh inserts
        adds = []
        for j in range(half):
            fresh = []
            while len(fresh) < k:
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and (u, v) not in taken:
                    taken.add((u, v))
                    fresh.append((u, v, trop_weight(rng)))
            adds.append(fresh)
            ops.append((dels[j], fresh))
        for j in reversed(range(half)):
            ops.append((adds[j], dels[j]))
    return ops


def write_batches(path, ops):
    with open(path, "w") as f:
        for dels, adds in ops:
            f.write("@ delete\n")
            f.writelines("- E %s %s\n" % (sym(u), sym(v)) for u, v, _ in dels)
            f.write("@ insert\n")
            f.writelines("+ E %s %s %d\n" % (sym(u), sym(v), w)
                         for u, v, w in adds)


# ------------------------------------------------------------ references

def floyd_warshall(n, edges):
    """Shortest nonempty walks; dist[i][i] is the shortest cycle via i."""
    inf = math.inf
    d = [[inf] * n for _ in range(n)]
    for u, v, w in edges:
        d[u][v] = min(d[u][v], w)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik != inf:
                d[i] = list(map(min, d[i], [dik + x for x in dk]))
    return d


def dijkstra(n, edges, source):
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    dist = [math.inf] * n
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def widest_parity(n, edges, source):
    """Widest (max-min) nonempty walks from source, split by length parity:
    best[v][p] for p = 1 (odd length) and p = 0 (even length)."""
    adj = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    best = [[0.0, 0.0] for _ in range(n)]
    heap = []
    for v, w in adj[source]:
        if w > best[v][1]:
            best[v][1] = w
            heapq.heappush(heap, (-w, v, 1))
    while heap:
        neg, u, p = heapq.heappop(heap)
        width = -neg
        if width < best[u][p]:
            continue
        for v, w in adj[u]:
            cand = min(width, w)
            if cand > best[v][1 - p]:
                best[v][1 - p] = cand
                heapq.heappush(heap, (-cand, v, 1 - p))
    return best


def apsp_tables(n, edges):
    d = floyd_warshall(n, edges)
    return {"T": {(sym(i), sym(j)): float(d[i][j])
                  for i in range(n) for j in range(n) if d[i][j] != math.inf}}


def sssp_tables(n, edges, source):
    dist = dijkstra(n, edges, source)
    return {"D": {(str(v),): float(d) for v, d in enumerate(dist)
                  if d != math.inf}}


def parity_tables(n, edges):
    odd, even, total = {}, {}, {}
    for s in range(n):
        best = widest_parity(n, edges, s)
        for v in range(n):
            key = (sym(s), sym(v))
            if best[v][1] > 0:
                odd[key] = best[v][1]
            if best[v][0] > 0:
                even[key] = best[v][0]
            if max(best[v]) > 0:
                total[key] = max(best[v])
    return {"Odd": odd, "Even": even, "T": total}


# -------------------------------------------------------------- outputs

def parse_tables(text):
    """datalogo_cli stdout -> (stability index or None, {pred: {keys: v}})."""
    steps, tables, current = None, {}, None
    for line in text.splitlines():
        if line.startswith("## "):
            current = tables.setdefault(line[3:], {})
        elif line.startswith("# converged, stability index "):
            steps = int(line.rsplit(" ", 1)[1])
        elif line.startswith("#") or not line:
            continue
        else:
            cols = line.split("\t")
            if current is None or len(cols) < 2:
                raise ValueError("stray line %r" % line)
            key = tuple(cols[:-1])
            if key in current:
                raise ValueError("duplicate row %r" % line)
            current[key] = float(cols[-1])
    return steps, tables


def check_tables(text, expected):
    """None if the output's tables equal `expected`, else a reason."""
    try:
        _, tables = parse_tables(text)
    except ValueError as e:
        return str(e)
    if sorted(tables) != sorted(expected):
        return "tables %s, expected %s" % (sorted(tables), sorted(expected))
    for pred, rows in expected.items():
        got = tables[pred]
        if got != rows:
            wrong = sorted(set(got.items()) ^ set(rows.items()))[:3]
            return "%s: %d rows, expected %d; first differences %s" % (
                pred, len(got), len(rows), wrong)
    return None


def row_count(text):
    return sum(len(rows) for rows in parse_tables(text)[1].values())


# ------------------------------------------------------------- workloads

class Inputs:
    """Generated files and reference tables for one (workload, seed)."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.work = work
        rng = random.Random("%s:%d" % (workload, seed))
        if workload == "apsp_closure":
            self.n = 256
            _, self.edges = workload_graph(workload, rng, self.n, 4,
                                           trop_weight)
            self.program = EXAMPLES / "shortest_paths.dl"
            self.semiring = "trop"
            self.edbs = [("E", [(sym(u), sym(v), w) for u, v, w in self.edges])]
            self.reference = apsp_tables
        elif workload == "sssp_bulk_load":
            self.n = 8000
            perm, self.edges = workload_graph(workload, rng, self.n, 8,
                                              lambda r: r.randint(1, 100))
            self.program = work / "sssp.dl"
            self.program.write_text(SSSP_PROGRAM)
            self.semiring = "trop"
            source = perm[0]
            self.edbs = [("S", [(source, 0)]), ("E", self.edges)]
            self.reference = lambda n, edges: sssp_tables(n, edges, source)
        elif workload == "parity_multigroup":
            self.n = 128
            _, self.edges = workload_graph(workload, rng, self.n, 3,
                                           fuzzy_weight)
            self.program = EXAMPLES / "parity_paths.dl"
            self.semiring = "fuzzy"
            self.edbs = [("E", [(sym(u), sym(v), w) for u, v, w in self.edges])]
            self.reference = parity_tables
        elif workload == "apsp_churn":
            # One fixed start graph and one fixed set of batch cycles; the
            # seed orders the cycles. An update's cost hinges on how many
            # shortest paths the deleted edges carry, which swings from
            # graph to graph and from batch to batch; a run applies about
            # one pass over the cycles, so every run times nearly the same
            # ops.
            self.n = 256
            self.edges = random_edges(random.Random(workload), self.n, 3,
                                      trop_weight)
            self.program = EXAMPLES / "shortest_paths.dl"
            self.semiring = "trop"
            self.edbs = [("E", [(sym(u), sym(v), w) for u, v, w in self.edges])]
            self.reference = apsp_tables
            ops = churn_ops(random.Random(workload + ":batches"), self.n,
                            self.edges, CHURN_CYCLES_IN_FILE)
            cycles = [ops[i:i + CHURN_CYCLE]
                      for i in range(0, len(ops), CHURN_CYCLE)]
            rng.shuffle(cycles)
            self.batches = work / "batches.txt"
            write_batches(self.batches, [op for c in cycles for op in c])
        else:
            raise BenchError("unknown workload %r" % workload)
        self.edb_args = []
        for pred, rows in self.edbs:
            path = work / ("%s.tsv" % pred)
            write_tsv(path, rows)
            self.edb_args += ["--edb", "%s=%s" % (pred, path)]
        self._expected = None

    @property
    def expected(self):
        if self._expected is None:
            self._expected = self.reference(self.n, self.edges)
        return self._expected

    def cli_args(self):
        return ([str(self.program), "--semiring=" + self.semiring]
                + self.edb_args + ["--seminaive"])


WORKLOADS = ("apsp_closure", "sssp_bulk_load", "parity_multigroup",
             "apsp_churn")


# ------------------------------------------------------------ statistics

def p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def tmean(xs):
    """Mean of the middle 80%: a tenth of the values cut off at each end."""
    xs = sorted(xs)
    k = len(xs) // 10
    return statistics.fmean(xs[k:len(xs) - k])


def ms(ns):
    return ns / 1e6


def slowdowns(samples):
    """Host slowdown for each op, from the probe samples taken on its CPU
    right before and right after it (samples 2k and 2k+1 for op k): the
    geometric mean of the four kernel times, each over its reference
    time. 1.0 is the reference host speed."""
    f = [math.sqrt(alu / REF_ALU_NS * chase / REF_CHASE_NS)
         for alu, chase, _cpu in samples]
    return [math.sqrt(a * b) for a, b in zip(f[::2], f[1::2])]


def normalized(values, slow):
    """Each value divided by the slowdown of its interval."""
    if len(values) != len(slow):
        raise BenchError("host-speed samples do not match the ops")
    return [v / s for v, s in zip(values, slow)]


def share(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Self time (ns) per span: its duration minus its children's."""
    own = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return own


def layer_self_ns(spans, ops):
    """{layer: [self ns per op]} over the root spans' ops in `ops`."""
    own = self_times(spans)
    per_op = {}
    for s, t in zip(spans, own):
        if s["op"] in ops and s["name"] in SPAN_LAYER:
            layer = SPAN_LAYER[s["name"]]
            per_op.setdefault(layer, {}).setdefault(s["op"], 0)
            per_op[layer][s["op"]] += t
    return {layer: [d.get(op, 0) for op in sorted(ops)]
            for layer, d in per_op.items()}


def span_counts(spans, name, ops):
    """Sum of each count of spans named `name`, averaged over `ops`."""
    total = {}
    for s in spans:
        if s["name"] == name and s["op"] in ops:
            for k, v in s["counts"].items():
                total[k] = total.get(k, 0) + v
    return {k: v / len(ops) for k, v in total.items()}


# --------------------------------------------------------------- runner

def ensure_built():
    for rel in ("CMakeLists.txt", "src", "examples/datalogo_cli.cc",
                "examples/data/shortest_paths.dl",
                "examples/data/parity_paths.dl"):
        if not (ROOT / rel).exists():
            raise BenchError("%s not found: run from a full checkout" % rel)
    BUILD.mkdir(parents=True, exist_ok=True)
    cache = BUILD / "CMakeCache.txt"
    source = "CMAKE_HOME_DIRECTORY:INTERNAL=%s" % (ROOT / "perfbench")
    if cache.exists() and source not in cache.read_text().splitlines():
        shutil.rmtree(BUILD)  # a build tree of another checkout
        BUILD.mkdir(parents=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.log", "w") as logf:
        steps = []
        if not cache.exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "datalogo_cli", "perfbench_runner",
                      "perfbench_calibrate", "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                logf.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def runner(mode, out, args, timeout):
    """Runs one perfbench_runner mode and returns its JSON result."""
    cmd = [str(RUNNER), mode, "--out", str(out)] + [str(a) for a in args]
    # A process group of its own, so a timeout also stops the CLI job it
    # runs.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        _, err = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise BenchError("perfbench_runner %s timed out" % mode)
    if p.returncode != 0:
        raise BenchError("perfbench_runner %s failed: %s" % (mode, err))
    return json.loads(Path(out).read_text())


def host_meta():
    meta = runner("host", BUILD / "host.json", [], 30)
    meta["nproc"] = os.cpu_count()
    return meta


class Run:
    """One benchmark run: counts ops and failures, collects metrics."""

    def __init__(self, inputs, seconds, cli=CLI):
        self.inputs = inputs
        self.seconds = seconds
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.determinism = {}

    def problem(self, msg):
        self.problems.append(msg)
        log("perfbench: " + msg)

    def check_jobs(self, res, ops_key):
        """Counts res[ops_key] CLI jobs; returns the checked output text."""
        bad, good = set(), None
        for h, path in sorted(res["outputs"].items()):
            text = Path(path).read_text()
            reason = check_tables(text, self.inputs.expected)
            if reason:
                bad.add(h)
                self.problem("wrong output %s: %s" % (path, reason))
            else:
                good = text

        def ok(job):
            return job["exit_code"] == 0 and job["hash"] not in bad
        if not all(ok(j) for j in res["warmups"]):
            self.problem("a warm-up job failed")
        self.attempted += len(res[ops_key])
        self.failed += sum(not ok(j) for j in res[ops_key])
        if good is not None:
            self.determinism["fixpoint.steps"] = parse_tables(good)[0]
            self.determinism["dump.rows"] = row_count(good)
        return good

    # ---------------------------------------------------- CLI workloads

    def cli_end_to_end(self):
        jobs = self.inputs.work / "jobs"
        jobs.mkdir(exist_ok=True)
        res = runner("cli", self.inputs.work / "cli.json",
                     ["--job-dir", jobs, "--seconds", self.seconds,
                      "--warmup", CLI_WARMUPS, "--calibrate", PROBE,
                      "--", self.cli] + self.inputs.cli_args(),
                     self.seconds + 150)
        self.check_jobs(res, "ops")
        ops, warmups = res["ops"], res["warmups"]
        slow = slowdowns(res["speed"])
        metrics, extra = self.end_to_end(
            [ms(j["wall_ns"]) for j in ops], [ms(j["cpu_ns"]) for j in ops],
            slow[len(warmups):],
            median([j["maxrss_kb"] for j in ops]) / 1024,
            [j["wall_ns"] / 1e9 for j in warmups], slow[:len(warmups)])
        extra["probe"] = res["speed"]
        return metrics, extra

    def end_to_end(self, wall, cpu, slow, rss_mb, setup_s, setup_slow):
        """End-to-end metrics from raw per-op times and their slowdowns;
        the raw figures go to the run record and stderr."""
        nwall, ncpu = normalized(wall, slow), normalized(cpu, slow)
        nsetup = normalized(setup_s, setup_slow)
        log("perfbench: %d ops, raw op_ms.p50 %.3f, host slowdown median "
            "%.3f (%.3f..%.3f)" % (len(wall), median(wall), median(slow),
                                   min(slow), max(slow)))
        return {
            "op_norm_ms.tmean": tmean(nwall),
            "op_cpu_norm_ms.tmean": tmean(ncpu),
            "op_cpu_norm_ms.p90": p90(ncpu),
            "peak_rss_mb": rss_mb, "setup_s": median(nsetup),
        }, {"samples": len(wall), "op_ms": wall, "op_cpu_ms": cpu,
            "op_norm_ms.p50": median(nwall), "op_norm_ms.p90": p90(nwall),
            "op_cpu_norm_ms.p50": median(ncpu),
            "slowdown": slow, "setup_raw_s": setup_s,
            "setup_slowdown": setup_slow,
            "raw": {"op_ms.p50": median(wall), "op_ms.p90": p90(wall),
                    "op_cpu_ms.p50": median(cpu), "op_cpu_ms.p90": p90(cpu),
                    "setup_s": median(setup_s)}}

    def cli_per_layer(self):
        jobs = self.inputs.work / "jobs"
        jobs.mkdir(exist_ok=True)
        out = self.inputs.work / "trace-output.txt"
        tr = runner("trace", self.inputs.work / "trace.json",
                    ["--output", out, "--job-dir", jobs,
                     "--seconds", self.seconds,
                     "--semiring", self.inputs.semiring,
                     self.inputs.program] + self.inputs.edb_args
                    + ["--", self.cli] + self.inputs.cli_args(),
                    self.seconds + 150)
        good = self.check_jobs(tr, "jobs")
        op_ms = median([ms(j["wall_ns"]) for j in tr["jobs"]])
        self.attempted += len(tr["ops"])
        self.failed += tr["failed"]
        if good is None or out.read_text() != good:
            self.problem("in-process replay output differs from the CLI's")
        spans = tr["spans"]
        traced = {o for o, r in enumerate(tr["ops"]) if r["traced"]}
        layers = layer_self_ns(spans, traced)
        m = {"parse.ms": ms(median(layers["parse"])),
             "load.ms": ms(median(layers["load"])),
             "compile.ms": ms(median(layers["compile"])),
             "fixpoint.ms": ms(median(layers["fixpoint"])),
             "dump.ms": ms(median(layers["dump"]))}
        per_op = [span_counts(spans, "fixpoint", {op}) for op in sorted(traced)]
        if any(c != per_op[0] for c in per_op):
            self.problem("fixpoint counters differ between identical ops")
        fix = per_op[0]
        load = span_counts(spans, "load", {min(traced)})
        dump = span_counts(spans, "dump", {min(traced)})
        last_load = [s for s in spans if s["name"] == "load"
                     and s["op"] == min(traced)][-1]
        m.update(self.counter_metrics(fix, fix.get("work", 0)))
        m.update({
            "load.rows": load["rows"],
            "load.ns_per_row": share(m["load.ms"] * 1e6, load["rows"]),
            "domain.constants": last_load["counts"]["constants"],
            "fixpoint.steps": fix["steps"], "fixpoint.work": fix["work"],
            "fixpoint.ns_per_work": share(m["fixpoint.ms"] * 1e6, fix["work"]),
            "dump.rows": dump["rows"], "dump.bytes": dump["bytes"],
            "dump.ns_per_row": share(m["dump.ms"] * 1e6, dump["rows"]),
            "update.delete_share": 0.0, "update.insert_share": 0.0,
            "update.delete_work": 0, "update.insert_work": 0,
            "update.rounds": 0, "update.rederived": 0,
            "update.recompute_share": 0.0, "update.work_vs_recompute": 0.0,
            "trace.outside_ms": op_ms - sum(
                m[k] for k in ("parse.ms", "load.ms", "compile.ms",
                               "fixpoint.ms", "dump.ms")),
            "trace.overhead_ms": overhead_ms(tr["ops"]),
        })
        self.determinism["fixpoint.work"] = fix["work"]
        return m, {"samples": len(tr["jobs"]), "traced_ops": len(traced),
                   "cli_op_ms.p50": op_ms, "spans": spans}

    def counter_metrics(self, counts, work_base):
        m = {metric: counts.get(c, 0) for c, metric in COUNTER_METRICS.items()}
        m["index.hit_ratio"] = share(m["index.hits"],
                                     m["index.hits"] + m["index.builds"])
        m["join.batched_share"] = share(m["join.batched_rows"], work_base)
        m["values.batched_share"] = share(m["values.batched"], work_base)
        return m

    # ------------------------------------------------------------ churn

    def churn(self, trace):
        checks = self.inputs.work / "checks"
        checks.mkdir(exist_ok=True)
        res = runner("churn", self.inputs.work / "churn.json",
                     ["--check-dir", checks, "--seconds", self.seconds,
                      "--cycle", CHURN_CYCLE, "--setups", CHURN_SETUPS,
                      "--trace", int(trace), "--calibrate", PROBE,
                      self.inputs.program,
                      "--batches", self.inputs.batches]
                     + self.inputs.edb_args, self.seconds + 150)
        ops = res["ops"]
        self.attempted += len(ops)
        self.failed += res["failed"]
        for check in res["checks"]:
            self.failed += self.churn_check(check)
        text = Path(res["checks"][-1]["tables"]).read_text()
        reason = check_tables(text, self.inputs.expected)
        if reason:
            self.problem("maintained tables differ from the reference: "
                         + reason)
        first = ops[:CHURN_CYCLE]
        self.determinism.update({
            "fixpoint.steps": res["setup_steps"],
            "fixpoint.work": res["setup_work"],
            "dump.rows": row_count(text),
            "update.delete_work": [o["delete_work"] for o in first],
            "update.insert_work": [o["insert_work"] for o in first],
        })
        return res

    def churn_check(self, check):
        """1 if the maintained tables of a churn check differ from a cold
        datalogo_cli run on the EDB written with them, else 0."""
        edbs = []
        for pred, path in sorted(check["edbs"].items()):
            edbs += ["--edb", "%s=%s" % (pred, path)]
        p = subprocess.run([str(self.cli), str(self.inputs.program),
                            "--semiring=" + self.inputs.semiring] + edbs
                           + ["--seminaive"], capture_output=True, text=True,
                           timeout=120)
        reason = "datalogo_cli exited with %d" % p.returncode
        if p.returncode == 0:
            try:
                reason = check_tables(Path(check["tables"]).read_text(),
                                      parse_tables(p.stdout)[1])
            except ValueError as e:
                reason = str(e)
        if reason:
            self.problem("churn tables after op %d differ from a cold "
                         "recompute: %s" % (check["op"], reason))
        return int(reason is not None)

    def churn_end_to_end(self):
        res = self.churn(trace=False)
        ops = res["ops"]
        metrics, extra = self.end_to_end(
            [ms(o["wall_ns"]) for o in ops], [ms(o["cpu_ns"]) for o in ops],
            slowdowns(res["speed"]), res["peak_rss_kb"] / 1024,
            [ns / 1e9 for ns in res["setup_ns"]],
            slowdowns(res["setup_speed"]))
        extra.update({
            "probe": res["speed"], "hash_checks": res["hash_checks"],
            "recompute_checks": len(res["checks"]),
            "delete_ms.p50": median([ms(o["delete_ns"]) for o in ops]),
            "insert_ms.p50": median([ms(o["insert_ns"]) for o in ops])})
        return metrics, extra

    def churn_per_layer(self):
        res = self.churn(trace=True)
        ops, spans = res["ops"], res["spans"]
        setups = {s["op"] for s in spans if s["name"] == "setup"}
        traced = {i for i, o in enumerate(ops) if o["traced"]}
        layers = layer_self_ns(spans, setups)
        m = {"parse.ms": ms(median(layers["parse"])),
             "load.ms": ms(median(layers["load"])),
             "compile.ms": ms(median(layers["compile"])),
             "fixpoint.ms": ms(median(layers["fixpoint"]))}
        load = span_counts(spans, "load", {min(setups)})
        fix = span_counts(spans, "fixpoint", {min(setups)})
        dump_span = [s for s in spans if s["name"] == "dump"][0]
        dump_ms = ms(dump_span["end_ns"] - dump_span["start_ns"])
        upd = {}
        for name in ("update.delete", "update.insert"):
            for k, v in span_counts(spans, name, traced).items():
                upd[k] = upd.get(k, 0) + v
        m.update(self.counter_metrics(upd, upd.get("work", 0)))
        first = ops[:CHURN_CYCLE]
        per_op_work = sum(o["delete_work"] + o["insert_work"]
                          for o in first) / len(first)
        wall = sum(o["wall_ns"] for o in ops)
        root_self = [t for s, t in zip(spans, self_times(spans))
                     if s["name"] == "op"]
        m.update({
            "load.rows": load["rows"],
            "load.ns_per_row": share(m["load.ms"] * 1e6, load["rows"]),
            "domain.constants": load["constants"],
            "fixpoint.steps": fix["steps"], "fixpoint.work": fix["work"],
            "fixpoint.ns_per_work": share(m["fixpoint.ms"] * 1e6, fix["work"]),
            "dump.ms": dump_ms, "dump.rows": dump_span["counts"]["rows"],
            "dump.bytes": dump_span["counts"]["bytes"],
            "dump.ns_per_row": share(dump_ms * 1e6,
                                     dump_span["counts"]["rows"]),
            "update.delete_share": share(sum(o["delete_ns"] for o in ops),
                                         wall),
            "update.insert_share": share(sum(o["insert_ns"] for o in ops),
                                         wall),
            "update.delete_work": sum(o["delete_work"] for o in first)
                                  / len(first),
            "update.insert_work": sum(o["insert_work"] for o in first)
                                  / len(first),
            "update.rounds": sum(o["rounds"] for o in first) / len(first),
            "update.rederived": sum(o["rederived"] for o in first)
                                / len(first),
            "update.recompute_share": share(
                sum(o["recomputes"] for o in ops), 2 * len(ops)),
            # The run ends with the EDB at its start, so a cold SemiNaive
            # on the final EDB is the set-up fixpoint.
            "update.work_vs_recompute": share(per_op_work, res["setup_work"]),
            "trace.outside_ms": ms(median(root_self)),
            "trace.overhead_ms": overhead_ms(ops),
        })
        return m, {"samples": len(ops), "traced_ops": len(traced),
                   "hash_checks": res["hash_checks"],
                   "recompute_checks": len(res["checks"]), "spans": spans}


def overhead_ms(ops):
    """Tracing cost per op: the median, over each traced stretch of ops and
    the untraced stretch right after it, of the difference of their mean
    wall times. Pairing neighbours cancels the host's slow drift."""
    stretches = []
    for o in ops:
        if not stretches or stretches[-1][0] != o["traced"]:
            stretches.append((o["traced"], []))
        stretches[-1][1].append(o["wall_ns"])
    diffs = [statistics.fmean(a[1]) - statistics.fmean(b[1])
             for a, b in zip(stretches, stretches[1:]) if a[0] and not b[0]]
    return ms(median(diffs)) if diffs else 0.0


def build_fingerprint():
    """Hash of the benchmark and the binaries it runs: deterministic counts
    are compared only between runs of the same code."""
    h = hashlib.sha256()
    for path in (Path(__file__), CLI, RUNNER):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(run, seed):
    """Deterministic counts must repeat exactly across runs of one seed."""
    path = BUILD / "determinism" / build_fingerprint() / (
        "%s-%d.json" % (run.inputs.workload, seed))
    path.parent.mkdir(parents=True, exist_ok=True)
    seen = json.loads(path.read_text()) if path.exists() else {}
    for key, value in run.determinism.items():
        if key in seen and seen[key] != value:
            run.problem("%s changed across runs of seed %d: %r then %r"
                        % (key, seed, seen[key], value))
    seen.update(run.determinism)
    path.write_text(json.dumps(seen, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cleared = sorted(k for k in os.environ if k.startswith("DATALOGO_"))
    for k in cleared:
        del os.environ[k]
    try:
        ensure_built()
        host = host_meta()
        log("perfbench: host " + json.dumps(host, sort_keys=True))
        work = BUILD / "work" / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = Run(Inputs(args.workload, args.seed, work), args.seconds)
        if args.workload == "apsp_churn":
            measure = run.churn_per_layer if args.trace else run.churn_end_to_end
        else:
            measure = run.cli_per_layer if args.trace else run.cli_end_to_end
        metrics, extra = measure()
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    check_determinism(run, args.seed)
    spec = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in spec},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  cleared_env=cleared, problems=run.problems,
                  determinism=run.determinism, **extra)
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                            args.trace))).write_text(
        json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
