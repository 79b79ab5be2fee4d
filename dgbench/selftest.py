"""Self-tests of the benchmark: tiny runs, oracles, tracer counts and restore.

    python3 dgbench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from dgcat.exactlin import QQ  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Every per-layer metric the traced run reports, including the self times
# that are structurally 0 on some workload.
LAYER_METRICS = {
    "exactlin.elim.calls", "exactlin.elim.self_s", "exactlin.elim.nnz",
    "exactlin.cohomology.calls", "exactlin.cohomology.self_s", "exactlin.snf.self_s",
    "dgcore.from_quiver.calls", "dgcore.from_quiver.self_s", "dgcore.validate.self_s",
    "dgcore.tensor.calls", "dgcore.tensor.self_s", "dgcore.mul.calls",
    "pretr.homspace.builds", "pretr.homspace.distinct", "pretr.homspace.distinct_ratio", "pretr.homspace.self_s",
    "pretr.contractible.calls", "pretr.contractible.self_s",
    "sodgen.check_sod.calls", "sodgen.check_sod.self_s", "sodgen.verify_generation.self_s", "sodgen.obligations",
    "ptring.saturate.calls", "ptring.saturate.rows", "ptring.saturate.self_s", "ptring.normalize.self_s", "ptring.eq.self_s",
    "schema.parse.self_s", "schema.parse.bytes", "schema.dump.self_s",
    "functors.check_qe.self_s", "functors.serre.self_s", "cli.main.self_s",
}


def _scratch():
    base = os.path.join(ROOT, ".dgbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def _dgcat_bindings():
    """id of every attribute of every loaded dgcat module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "dgcat" or name.startswith("dgcat.")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for k, v in vars(value).items():
                    out[(name, attr, k)] = v
    return out


class TinyRuns(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        for name in run.NAMES:
            plain = run.run_workload(name, seed=5, seconds=0, trace=False, tiny=True)
            self.assertEqual(plain["failed_wellformed"], 0, plain["failures"])
            self.assertEqual(plain["passes"], 1)
            for m in SPEC["end_to_end"]:
                self.assertGreater(plain["metrics"][m["name"]], 0, (name, m["name"]))
            traced = run.run_workload(name, seed=5, seconds=0, trace=True, tiny=True)
            self.assertEqual(traced["failed"], plain["failed"])
            missing = {m["name"] for m in SPEC["per_layer"]} - set(traced["layers"])
            self.assertFalse(missing, name)
            self.assertFalse(LAYER_METRICS - set(traced["layers"]), name)
            if name == "quiver":
                self.assertEqual(traced["layers"]["pretr.homspace.builds"], 0)
                self.assertEqual(sum(v for k, v in traced["layers"].items() if k.startswith("ptring.")), 0)
                self.assertGreater(traced["layers"]["dgcore.from_quiver.calls"], 0)

    def test_cli_failures_are_the_hostile_share_and_do_not_depend_on_the_seed(self):
        a = run.run_workload("cli", seed=1, seconds=0, trace=False, tiny=True)
        b = run.run_workload("cli", seed=2, seconds=0, trace=False, tiny=True)
        self.assertEqual(a["failed_wellformed"], 0)
        self.assertEqual((a["failed"], a["attempted"]), (b["failed"], b["attempted"]))
        # The seed code crashes on malformed documents and accepts the
        # scaled-identity claim; both must show.
        self.assertIn("hostile check-sod scaled ids", a["failures"])
        self.assertIn("hostile validate mutated", a["failures"])

    def test_result_line_has_exactly_the_contract_keys(self):
        rec = run.run_workload("hull", seed=1, seconds=0, trace=False, tiny=True)
        line = json.loads(run._result_line(rec, SPEC))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
        self.assertTrue(line["correct"])


class OraclesCatchWrongAnswers(unittest.TestCase):
    """Each oracle accepts dgcat's answer and rejects it once the expected
    answer is deliberately wrong."""

    def assert_caught(self, make_job, patch):
        job = make_job()
        self.assertTrue(job.check(job.run()), job.kind)
        with patch:
            job = make_job()
            result = job.run()
            self.assertFalse(job.check(result), job.kind)

    def test_quiver_dimensions(self):
        q = {(0, 1): Fraction(1, 2), (0, 2): -1, (1, 2): 3}
        real = workloads._binom_dim
        self.assert_caught(
            lambda: workloads._quiver_job(QQ, 3, 2, q),
            mock.patch.object(workloads, "_binom_dim", lambda *a: real(*a) + 1),
        )

    def test_hull_oracles(self):
        (model,) = workloads._tensor_models(tiny=True)
        n = len(model.cat.objects)
        real_rank = workloads._rank_mod_p
        real_dim = workloads._binom_dim
        # flips invertibility and changes the rank either way
        off_by_one = mock.patch.object(
            workloads, "_rank_mod_p", lambda rows: len(rows) - 1 if real_rank(rows) == len(rows) else len(rows)
        )
        self.assert_caught(
            lambda: workloads._sod_job(model, list(range(n))),
            mock.patch.object(workloads, "_order_is_exceptional", lambda coords: False),
        )
        self.assert_caught(
            lambda: workloads._cone_job(model, random.Random(1), 3, slot=0),
            mock.patch.object(workloads, "_binom_dim", lambda *a: real_dim(*a) + 1),
        )
        self.assert_caught(lambda: workloads._iso_job(model, random.Random(2), 3), off_by_one)
        self.assert_caught(lambda: workloads._reduce_job(model, random.Random(3), 3), off_by_one)

    def test_cli_oracles(self):
        tmp = _scratch()
        try:
            ctx = workloads.cli_setup(tmp, tiny=True)
            os.makedirs(ctx["out"])
            wrong_eq = mock.patch.object(workloads.RingOracle, "eq", lambda self, a, b: "not a verdict")
            self.assert_caught(lambda: workloads._eq_job(ctx, random.Random(7)), wrong_eq)
            self.assert_caught(lambda: workloads._measure_job(ctx, random.Random(7)), wrong_eq)
            real_dim = workloads._binom_dim
            self.assert_caught(
                lambda: workloads._ext_job(ctx, "beilinson3.category.json"),
                mock.patch.object(workloads, "_binom_dim", lambda *a: real_dim(*a) + 1),
            )
            real_parse = workloads.parse_expr
            self.assert_caught(
                lambda: workloads._relate_expr_job(ctx, random.Random(4)),
                mock.patch.object(workloads, "parse_expr", lambda s: {**real_parse(s), ("P9",): 1}),
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_ring_oracle_matches_the_ledger_semantics(self):
        oracle = workloads.RingOracle({
            ("P1", "P1"): {("P1xP1",): 1}, ("P1", "P2"): {("P1xP2",): 1},
        })
        p = workloads.parse_expr
        self.assertEqual(oracle.eq(p("[P1]*[P1]"), p("4*[pt]")), "equal")
        self.assertEqual(oracle.eq(p("[P1]*[P2]"), p("5*[pt]")), "unequal_within_bound")
        self.assertEqual(oracle.eq(p("[P2]*[P2]"), p("9*[pt]")), "unknown")
        self.assertEqual(workloads.format_expr(p("-2*[pt] + [P1]*[P2]")), "[P1]*[P2] - 2*[pt]")


class Tracing(unittest.TestCase):
    def test_one_ring_command_reproduces_the_homspace_counts(self):
        tmp = _scratch()
        try:
            docs = os.path.join(tmp, "docs")
            self.assertEqual(workloads.run_cli(["fixtures", "--out", docs]).code, 0)
            t = tracer.Tracer()
            with t:
                r = workloads.run_cli(["ring", os.path.join(docs, "motivic.ledger.json"), "eq", "[P1]*[P1]", "4*[pt]"])
                t.end_job()
            self.assertEqual(r.code, 0)
            m = t.layer_metrics()
            self.assertEqual(m["pretr.homspace.builds"], 1617)
            self.assertEqual(m["pretr.homspace.distinct"], 369)
            self.assertEqual(m["cli.main.calls"], 1)
            self.assertEqual(m["schema.parse.calls"], 1)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def test_uninstall_restores_every_wrapped_attribute(self):
        before = _dgcat_bindings()
        t = tracer.Tracer()
        t.install()
        targets = t.wrapped_targets()
        try:
            self.assertGreaterEqual(len(targets), len(tracer.SPANS) + len(tracer.COUNTS))
            for holder, attr, original in targets:
                self.assertIsNot(vars(holder)[attr], original)
            # rebinding reached the copies made by `from .x import y`
            import dgcat.cli
            import dgcat.sodgen
            self.assertTrue(hasattr(dgcat.sodgen.is_ho_iso, "__wrapped__"))
            self.assertTrue(hasattr(dgcat.cli.check_quasi_equiv, "__wrapped__"))
        finally:
            t.uninstall()
        for holder, attr, original in targets:
            self.assertIs(vars(holder)[attr], original)
        after = _dgcat_bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_traced_run_leaves_dgcat_untouched(self):
        before = _dgcat_bindings()
        run.run_workload("hull", seed=2, seconds=0, trace=True, tiny=True)
        after = _dgcat_bindings()
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class HostSpeedScaling(unittest.TestCase):
    def test_reference_is_fixed_and_free_of_dgcat(self):
        self.assertEqual(speed.reference(), speed.reference())
        self.assertFalse([m for m in vars(speed).values() if getattr(m, "__name__", "").startswith("dgcat")])

    def test_timings_are_scaled_by_the_probes_around_them(self):
        probes = iter([0.010, 0.020, 0.005])
        with mock.patch.object(speed, "reference_s", lambda: next(probes)), mock.patch.object(speed, "PROBE_EVERY_S", 1e9):
            clock = speed.Clock()
            self.assertEqual(clock.add("a", 1.0), [])
            self.assertEqual(clock.add("b", 2.0), [])
            (a, sa), (b, sb) = clock.flush()
            self.assertEqual(clock.add("c", 3.0), [])
            ((c, sc),) = clock.flush()
        f1 = speed.NOMINAL_S / (0.010 * 0.020) ** 0.5
        f2 = speed.NOMINAL_S / (0.020 * 0.005) ** 0.5
        self.assertEqual((a, b, c), ("a", "b", "c"))
        self.assertAlmostEqual(sa, 1.0 * f1)
        self.assertAlmostEqual(sb, 2.0 * f1)
        self.assertAlmostEqual(sc, 3.0 * f2)
        self.assertEqual(clock.factors, [f1, f2])


class Contract(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        tmp = _scratch()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "dgbench"), ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "dgbench/run.py", "--workload", "quiver", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
