"""Self-test of the benchmark's own machinery.

usage: python3 perfbench/selftest.py    (from the root of a source checkout)

Checks that the output check rejects bad CSVs and failed invocations, that
tracing leaves the CSV bytes unchanged and restores every function, and
that the names in BENCHMARK.json are well formed and match what the
benchmark reports.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import time
import unittest

import run
from checks import DENSITY_ROWS, check_csv, invocation_key, load_digests

NAME = re.compile(r"[A-Za-z0-9_.-]+")

UNCERTAINTY_ARGS = ["--command", "uncertainty", "--out", "uncertainty-lowering.csv"]


def _csv(header: str, rows: list[str]) -> bytes:
    return ("\n".join(["# config=000000000000 basis=64 version=0.1.0", header, *rows])
            + "\n").encode()


class OutputCheckTest(unittest.TestCase):
    def test_invariants_accept_good_and_reject_bad_rows(self):
        good = _csv("z_abs,sigma_x,sigma_p,product", ["0,1,0.6,0.6", "1,1,0.5,0.5"])
        args = ["--command", "uncertainty", "--steps", "2", "--out", "u.csv"]
        self.assertEqual(check_csv(args, good, {}), [])
        low = _csv("z_abs,sigma_x,sigma_p,product", ["0,1,0.6,0.6", "1,1,0.4,0.4"])
        self.assertTrue(check_csv(args, low, {}))
        entropy_args = ["--command", "entropy", "--steps", "2", "--out", "e.csv"]
        header = "z_abs,theta,phi,S,S_converged,cutoff"
        self.assertEqual(check_csv(entropy_args, _csv(header, ["0,1,0,0.5,true,64"] * 2), {}), [])
        self.assertTrue(check_csv(entropy_args, _csv(header, ["0,1,0,0.5,false,64"] * 2), {}))
        self.assertTrue(check_csv(entropy_args, _csv(header, ["0,1,0,1.0,true,64"] * 2), {}))
        validate_args = ["--command", "validate", "--out", "v.csv"]
        self.assertTrue(check_csv(validate_args, _csv("check,status,detail",
                                                      ['a,PASS,"x"', 'b,FAIL,"y"']), {}))
        density_args = ["--command", "density", "--steps", "2", "--out", "d.csv"]
        rows = [f"{0.02 * (i + 1)},0.1,0.2" for i in range(DENSITY_ROWS)]
        self.assertEqual(check_csv(density_args, _csv("x,P[z=0],P[z=1]", rows), {}), [])
        rows[7] = "0.16,-0.1,nan"
        self.assertTrue(check_csv(density_args, _csv("x,P[z=0],P[z=1]", rows), {}))
        self.assertEqual(check_csv(args, None, {}), ["no CSV written"])

    def test_corrupted_csv_fails_its_digest(self):
        digests = load_digests()
        key = invocation_key(UNCERTAINTY_ARGS)
        self.assertIn(key, digests)
        runner = _runner(self)
        result = runner.run_pass([("uncertainty-lowering.csv", UNCERTAINTY_ARGS)],
                                 traced=False, digests=digests)
        self.assertEqual(result.failures, [])
        data = result.csvs["uncertainty-lowering.csv"]
        corrupted = data.replace(b"0.5", b"0.6", 1)
        self.assertNotEqual(corrupted, data)
        self.assertEqual(check_csv(UNCERTAINTY_ARGS, corrupted, digests),
                         ["CSV sha256 differs from the recorded digest"])

    def test_nonzero_exit_is_a_failure(self):
        runner = _runner(self)
        bad = ["--command", "uncertainty", "--steps", "1", "--out", "bad.csv"]
        result = runner.run_pass([("bad.csv", bad)], traced=False, digests={})
        self.assertEqual(len(result.failures), 1)
        self.assertIn("exit 2", result.failures[0][1])


class TraceTest(unittest.TestCase):
    def test_traced_run_writes_identical_csv(self):
        runner = _runner(self)
        invs = [("uncertainty-lowering.csv", UNCERTAINTY_ARGS)]
        plain = runner.run_pass(invs, traced=False, digests={})
        traced = runner.run_pass(invs, traced=True, digests={})
        self.assertEqual(plain.failures + traced.failures, [])
        self.assertEqual(plain.csvs, traced.csvs)
        self.assertEqual(hashlib.sha256(plain.csvs["uncertainty-lowering.csv"]).hexdigest(),
                         load_digests()[invocation_key(UNCERTAINTY_ARGS)])
        metrics = run.layer_metrics(traced)
        self.assertGreater(metrics["observables.table.calls"], 0)
        self.assertGreater(metrics["cli.self_s"], 0.0)

    def test_tracer_wraps_every_binding_and_restores_it(self):
        sys.path.insert(0, str(run.SRC))
        try:
            import truncosc.cli
            import truncosc.fock
            import truncosc.observables
            from tracer import Tracer
        finally:
            sys.path.remove(str(run.SRC))
        original = truncosc.fock.weighted_eigenfunction_derivatives
        gauss = truncosc.cli.gauss_halfline
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIs(truncosc.observables.weighted_eigenfunction_derivatives,
                          truncosc.fock.weighted_eigenfunction_derivatives)
            self.assertIsNot(truncosc.fock.weighted_eigenfunction_derivatives, original)
            truncosc.cli.gauss_halfline(24)
            truncosc.observables.weighted_eigenfunction_derivatives(1, [0.5], order=1)
            self.assertEqual(truncosc.cli.gauss_halfline.cache_info(), gauss.cache_info())
        finally:
            tracer.uninstall()
        self.assertIs(truncosc.fock.weighted_eigenfunction_derivatives, original)
        self.assertIs(truncosc.cli.gauss_halfline, gauss)
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names[0], "numerics.gauss_halfline")
        self.assertIn("fock.weighted_eigenfunction_derivatives", names)


class BenchmarkSpecTest(unittest.TestCase):
    def test_names_are_well_formed_and_reported(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for entry in spec[key]]
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        fake = run.Pass(traced=True, csvs={"x.csv": b"abc"},
                        children=[run.Child(0, 0.5, 1.0, 90.0, "",
                                            {"spans": [], "caches": {}})])
        plain = run.Pass(traced=False, wall_s=2.0, compute_s=1.0, cpu_s=1.5,
                         peak_rss_mb=90.0, setups=[0.5])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.assertEqual(set(run.summarize([plain], False, units)),
                         {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(set(run.summarize([plain, fake], True, units)),
                         {m["name"] for m in spec["per_layer"]})

    def test_seed_draws_are_reproducible(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.invocations(workload, 7), run.invocations(workload, 7))
        self.assertNotEqual(run.invocations("entropy", 1), run.invocations("entropy", 2))


def _runner(test: unittest.TestCase) -> run.Runner:
    workdir = run.WORK_ROOT / f"selftest-{test.id().rsplit('.', 1)[-1]}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    test.addCleanup(_remove_workdir, workdir)
    return run.Runner(workdir, nproc=len(os.sched_getaffinity(0)),
                      deadline=time.monotonic() + 120.0)


def _remove_workdir(workdir) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    if run.WORK_ROOT.exists() and not any(run.WORK_ROOT.iterdir()):
        run.WORK_ROOT.rmdir()


if __name__ == "__main__":
    unittest.main()
