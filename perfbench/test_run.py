"""Tests for the benchmark itself. From the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build datalogo_cli, perfbench_runner and perfbench_calibrate first,
like run.py does.
"""

import json
import math
import os
import random
import stat
import subprocess
import tempfile
import unittest
from pathlib import Path

import run


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.ensure_built()

    def tempdir(self):
        d = tempfile.TemporaryDirectory(dir=run.BUILD)
        self.addCleanup(d.cleanup)
        return Path(d.name)

    def cli(self, *args):
        p = subprocess.run([str(run.CLI)] + [str(a) for a in args],
                           capture_output=True, text=True, check=True)
        return p.stdout


class GeneratorTest(BenchTest):
    def files(self, workload, seed):
        work = self.tempdir()
        run.Inputs(workload, seed, work)
        return {p.name: p.read_bytes() for p in sorted(work.iterdir())}

    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.files(workload, 7)
                self.assertEqual(first, self.files(workload, 7))
                self.assertNotEqual(first, self.files(workload, 8))

    def test_seeds_rename_one_graph(self):
        # Another seed renames and reorders the same graph: the references
        # hold the same values under other names.
        for workload in ("sssp_bulk_load", "parity_multigroup"):
            with self.subTest(workload=workload):
                a = run.Inputs(workload, 7, self.tempdir())
                b = run.Inputs(workload, 8, self.tempdir())
                self.assertNotEqual(a.edges, b.edges)
                self.assertEqual(sorted(w for _, _, w in a.edges),
                                 sorted(w for _, _, w in b.edges))
                for pred, rows in a.expected.items():
                    self.assertEqual(sorted(rows.values()),
                                     sorted(b.expected[pred].values()))

    def test_only_knob_free_cli_flags(self):
        for workload in run.WORKLOADS:
            flags = {a.split("=")[0] for a in
                     run.Inputs(workload, 1, self.tempdir()).cli_args()
                     if a.startswith("--")}
            self.assertLessEqual(flags, {"--semiring", "--edb", "--seminaive"})

    def test_churn_cycles_return_to_start(self):
        edges = run.random_edges(random.Random(3), 64, 3, run.trop_weight)
        start = {(u, v): w for u, v, w in edges}
        live = dict(start)
        ops = run.churn_ops(random.Random(4), 64, edges, 3)
        self.assertEqual(len(ops), 3 * run.CHURN_CYCLE)
        for i, (dels, adds) in enumerate(ops):
            self.assertEqual(len(dels), len(edges) // 100)
            for u, v, _ in dels:
                self.assertIn((u, v), live)
                del live[(u, v)]
            for u, v, w in adds:
                self.assertNotIn((u, v), live)
                live[(u, v)] = w
            if (i + 1) % run.CHURN_CYCLE == 0:
                self.assertEqual(live, start)


class ReferenceTest(BenchTest):
    """Each reference agrees with datalogo_cli on examples/data/edges.tsv."""

    def example_edges(self, scale=1.0):
        names, edges = {}, []
        for line in (run.EXAMPLES / "edges.tsv").read_text().splitlines():
            if line and not line.startswith("#"):
                u, v, w = line.split()
                for x in (u, v):
                    names.setdefault(x, len(names))
                edges.append((names[u], names[v], round(float(w) * scale, 6)))
        return names, edges

    def test_floyd_warshall(self):
        names, edges = self.example_edges()
        d = run.floyd_warshall(len(names), edges)
        self.assertEqual(d[names["v0"]][names["v2"]], 3)
        _, tables = run.parse_tables(self.cli(
            run.EXAMPLES / "shortest_paths.dl", "--semiring=trop",
            "--edb", "E=%s" % (run.EXAMPLES / "edges.tsv"), "--seminaive"))
        self.assertEqual(tables["T"][("v0", "v2")], 3)
        by_id = {i: n for n, i in names.items()}
        self.assertEqual(tables["T"], {
            (by_id[i], by_id[j]): d[i][j] for i in by_id for j in by_id
            if d[i][j] != float("inf")})

    def test_dijkstra(self):
        names, edges = self.example_edges()
        dist = run.dijkstra(len(names), edges, names["v0"])
        self.assertEqual(dist[names["v2"]], 3)
        work = self.tempdir()
        (work / "sssp.dl").write_text(run.SSSP_PROGRAM)
        (work / "s.tsv").write_text("v0\t0\n")
        _, tables = run.parse_tables(self.cli(
            work / "sssp.dl", "--semiring=trop", "--edb", "S=%s" % (work / "s.tsv"),
            "--edb", "E=%s" % (run.EXAMPLES / "edges.tsv"), "--seminaive"))
        by_id = {i: n for n, i in names.items()}
        self.assertEqual(tables["D"], {(by_id[v],): d for v, d in
                                       enumerate(dist) if d != float("inf")})

    def test_widest_parity(self):
        # Fuzzy values live in [0, 1]: the example's weights scaled by 1/10.
        names, edges = self.example_edges(scale=0.1)
        work = self.tempdir()
        by_id = {i: n for n, i in names.items()}
        run.write_tsv(work / "e.tsv",
                      [(by_id[u], by_id[v], w) for u, v, w in edges])
        text = self.cli(run.EXAMPLES / "parity_paths.dl", "--semiring=fuzzy",
                        "--edb", "E=%s" % (work / "e.tsv"), "--seminaive")
        want = run.parity_tables(len(names), edges)
        renamed = {pred: {(by_id[int(u[1:])], by_id[int(v[1:])]): x
                          for (u, v), x in rows.items()}
                   for pred, rows in want.items()}
        self.assertIsNone(run.check_tables(text, renamed))
        self.assertEqual(renamed["Odd"][("v0", "v2")], 0.5)
        self.assertEqual(renamed["Even"][("v0", "v2")], 0.1)  # via v1


class CheckTest(BenchTest):
    def test_corrupted_output_line_counts_as_failed_op(self):
        work = self.tempdir()
        wrapper = work / "corrupting_cli.sh"
        wrapper.write_text('#!/bin/sh\n"%s" "$@" | sed "3s/[0-9.]*$/0.999/"\n'
                           % run.CLI)
        wrapper.chmod(wrapper.stat().st_mode | stat.S_IXUSR)
        inputs = run.Inputs("parity_multigroup", 1, work)
        bench = run.Run(inputs, 0.3, cli=wrapper)
        bench.cli_end_to_end()
        self.assertGreaterEqual(bench.attempted, 1)
        self.assertEqual(bench.failed, bench.attempted)
        self.assertTrue(bench.problems)

        clean = run.Run(inputs, 0.3)
        clean.cli_end_to_end()
        self.assertEqual((clean.failed, clean.problems), (0, []))

    def test_corrupted_churn_tables_count_as_failed(self):
        work = self.tempdir()
        bench = run.Run(run.Inputs("apsp_churn", 1, work), 0.1)
        edb = run.EXAMPLES / "edges.tsv"
        text = self.cli(run.EXAMPLES / "shortest_paths.dl", "--semiring=trop",
                        "--edb", "E=%s" % edb, "--seminaive")
        tables = text.split("\n", 1)[1]  # datalogo_cli's first line is a note
        check = {"op": 4, "tables": str(work / "check.out"),
                 "edbs": {"E": str(edb)}}
        Path(check["tables"]).write_text(tables)
        self.assertEqual(bench.churn_check(check), 0)
        self.assertEqual(bench.problems, [])
        corrupted = tables.replace("v0\tv2\t3\n", "v0\tv2\t4\n")
        self.assertNotEqual(corrupted, tables)
        Path(check["tables"]).write_text(corrupted)
        self.assertEqual(bench.churn_check(check), 1)
        self.assertEqual(len(bench.problems), 1)

    def test_check_tables_reports_wrong_values(self):
        expected = {"T": {("a", "b"): 1.0}}
        self.assertIsNone(run.check_tables("## T\na\tb\t1\n", expected))
        self.assertIsNotNone(run.check_tables("## T\na\tb\t2\n", expected))
        self.assertIsNotNone(run.check_tables("## T\n", expected))
        self.assertIsNotNone(run.check_tables("## U\na\tb\t1\n", expected))

    def test_changed_deterministic_count_is_a_problem(self):
        work = self.tempdir()
        bench = run.Run(run.Inputs("parity_multigroup", 99, work), 0.1)
        path = (run.BUILD / "determinism" / run.build_fingerprint()
                / "parity_multigroup-99.json")
        self.addCleanup(lambda: path.unlink(missing_ok=True))
        path.unlink(missing_ok=True)
        bench.determinism = {"fixpoint.work": 10}
        run.check_determinism(bench, 99)
        self.assertEqual(bench.problems, [])
        bench.determinism = {"fixpoint.work": 11}
        run.check_determinism(bench, 99)
        self.assertEqual(len(bench.problems), 1)


class HostSpeedTest(BenchTest):
    def test_slowdown_is_geometric_mean_over_reference(self):
        ref = [run.REF_ALU_NS, run.REF_CHASE_NS, 0]
        twice = [2 * run.REF_ALU_NS, 2 * run.REF_CHASE_NS, 1]
        # One op at reference speed, one at half speed, one between.
        slow = run.slowdowns([ref, ref, twice, twice, ref, twice])
        self.assertEqual(len(slow), 3)
        for got, want in zip(slow, (1.0, 2.0, math.sqrt(2))):
            self.assertAlmostEqual(got, want)
        self.assertEqual(run.normalized([10.0, 10.0], slow[:2]), [10.0, 5.0])
        with self.assertRaises(run.BenchError):
            run.normalized([10.0], slow)

    def test_every_op_is_bracketed_by_probe_samples(self):
        bench = run.Run(run.Inputs("apsp_closure", 1, self.tempdir()), 0.3)
        metrics, extra = bench.cli_end_to_end()
        self.assertEqual((bench.failed, bench.problems), (0, []))
        self.assertEqual(set(metrics), {name for name, _ in run.END_TO_END})
        jobs = run.CLI_WARMUPS + extra["samples"]
        self.assertEqual(len(extra["probe"]), 2 * jobs)
        # Jobs rotate over the CPUs, and both samples of a job share one.
        cpus = [cpu for _, _, cpu in extra["probe"]]
        self.assertEqual(cpus[::2], cpus[1::2])
        self.assertEqual(len(set(cpus)), min(jobs, len(os.sched_getaffinity(0))))
        for v in extra["slowdown"]:
            self.assertGreater(v, 0)


class TraceTest(BenchTest):
    def assert_spans_nest(self, spans):
        self.assertTrue(spans)
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            if s["parent"] >= 0:
                p = spans[s["parent"]]
                self.assertEqual(p["op"], s["op"])
                self.assertLessEqual(p["start_ns"], s["start_ns"])
                self.assertLessEqual(s["end_ns"], p["end_ns"])
        for t in run.self_times(spans):
            self.assertGreaterEqual(t, 0)

    def test_cli_trace(self):
        bench = run.Run(run.Inputs("parity_multigroup", 1, self.tempdir()),
                        0.5)
        metrics, extra = bench.cli_per_layer()
        self.assertEqual((bench.failed, bench.problems), (0, []))
        self.assertEqual(set(metrics), {name for name, _ in run.PER_LAYER})
        self.assert_spans_nest(extra["spans"])
        names = {s["name"] for s in extra["spans"]}
        self.assertEqual(names, {"op", "parse", "validate", "load", "compile",
                                 "fixpoint", "dump"})

    def test_churn_trace(self):
        bench = run.Run(run.Inputs("apsp_churn", 1, self.tempdir()), 0.5)
        metrics, extra = bench.churn_per_layer()
        self.assertEqual((bench.failed, bench.problems), (0, []))
        self.assertEqual(set(metrics), {name for name, _ in run.PER_LAYER})
        self.assertGreater(metrics["update.delete_work"], 0)
        self.assert_spans_nest(extra["spans"])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
