"""truncosc benchmark: the CLI timed from outside, as fresh processes.

usage: python3 perfbench/run.py --workload {validate,observables,entropy}
                                --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  One client runs a workload's CLI
invocations one process at a time (closed loop) and repeats the whole pass
for about S seconds.  Each invocation is a fresh interpreter that
imports ``truncosc`` from ``<checkout>/src`` by absolute path, so the
measurement includes what a user waits for: interpreter start, import and
compute.  The seed picks only the scan inputs (|z| range and splitter
angle); seed 0 is the reference input set whose CSV digests are recorded in
``perfbench/digests.json``.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, taken from
passes whose children wrap every public truncosc function (see
``tracer.py``), alternated with untraced passes that give the tracing
overhead.  The line before it holds quartiles, sample counts, the
environment record and the CSV digests.  Every CSV is checked
(``checks.py``) and must be byte-identical across all passes of a run,
traced or not.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_csv, load_digests
from child import IMPORTED_MARKER
from tracer import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CHILD = BENCH_DIR / "child.py"
WORK_ROOT = ROOT / ".perfbench_work"

REFERENCE_SEED = 0
DEFAULT_Z_MAX = 2.0
# a run must end within 180 s; children still running at this point are killed
HARD_LIMIT_S = 170.0

# Each invocation: CSV name, fixed CLI arguments, the |z|-max interval the
# seed draws from, and whether the seed also draws the splitter angle.  Every
# interval keeps the scan inside all of the command's truncation windows at
# the seed commit: the probability outside them stays below 1e-20
# (susy-iso entropy truncates at 32 levels and fails at |z| = 1.25).
WORKLOADS = {
    "validate": [
        ("validate", ["--command", "validate"], None, False),
    ],
    "observables": [
        ("density-lowering", ["--command", "density"], (1.5, 3.0), False),
        ("uncertainty-lowering", ["--command", "uncertainty"], (1.5, 3.0), False),
        ("density-susy-iso", ["--command", "density", "--family", "susy-iso",
                              "--model", "SUSY_Q4"], (1.0, 2.0), False),
        ("uncertainty-susy-iso", ["--command", "uncertainty", "--family", "susy-iso",
                                  "--model", "SUSY_Q4"], (1.0, 2.0), False),
    ],
    "entropy": [
        ("entropy-lowering", ["--command", "entropy"], (1.5, 3.0), True),
        ("entropy-susy-new", ["--command", "entropy", "--family", "susy-new",
                              "--model", "SUSY_Q4", "--basis", "80"], (1.5, 3.0), True),
        ("entropy-susy-iso", ["--command", "entropy", "--family", "susy-iso",
                              "--model", "SUSY_Q4", "--basis", "80"], (0.5, 1.0), True),
    ],
}

# Per-layer span groups: metric prefix -> functions (layer.function) it covers.
GROUPS = {
    "numerics.meijer_g": ("numerics.meijer_g_2012",),
    "numerics.gauss_halfline": ("numerics.gauss_halfline",),
    "coherent.build_cs": ("coherent.build_cs",),
    "coherent.radial": ("coherent.identity_resolution_check",),
    "fock.rows": ("fock.eigenfunction", "fock.weighted_eigenfunction_derivatives",
                  "fock.hermite_normalized"),
    "susy.rows": ("susy.iso_weighted_rows", "susy.new_weighted_rows",
                  "susy.iso_eigenfunction_derivatives",
                  "susy.new_eigenfunction_derivatives"),
    "susy.measure": ("susy.new_measure_check", "susy.g_moment", "susy.iso_measure_check"),
    "susy.cs": ("susy.susy_cs",),
    "observables.table": ("observables.build_table",),
    "observables.expectation": ("observables.expectation",),
    "entangle.embed": ("entangle.embed_cs_in_two_modes",),
    "entangle.block": ("entangle.beamsplitter_block",),
    "entangle.apply": ("entangle.beamsplitter_apply",),
    "entangle.gram": ("entangle.gram_matrix",),
    "entangle.reduce": ("entangle.reduced_density", "entangle.linear_entropy"),
}
CACHED_GROUPS = ("numerics.gauss_halfline", "entangle.block", "entangle.gram")
IMPORT_PACKAGES = ("numpy", "scipy", "truncosc")


class BenchError(Exception):
    """The benchmark cannot run here (no package, a broken child, ...)."""


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's CLI invocations for this seed: (CSV name, arguments)."""
    rng = random.Random(seed)
    out = []
    for name, fixed, z_interval, draws_theta in WORKLOADS[workload]:
        args = list(fixed)
        if z_interval is not None:
            lo, hi = z_interval
            if seed == REFERENCE_SEED:
                z_max = min(DEFAULT_Z_MAX, hi)
                if z_max != DEFAULT_Z_MAX:
                    args += ["--zmax", f"{z_max:g}"]
            else:
                z_max = rng.uniform(lo, hi)
                args += ["--zmin", f"{rng.uniform(0.0, z_max / 4):.6f}",
                         "--zmax", f"{z_max:.6f}"]
        if draws_theta and seed != REFERENCE_SEED:
            args += ["--theta", f"{math.pi * rng.uniform(0.02, 0.98):.6f}"]
        out.append((f"{name}.csv", args + ["--out", f"{name}.csv"]))
    return out


@dataclass
class Child:
    code: int
    setup_s: float
    cpu_s: float
    rss_mb: float
    stderr: str
    report: dict | None


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    compute_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setups: list[float] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)
    csvs: dict[str, bytes | None] = field(default_factory=dict)
    children: list[Child] = field(default_factory=list)


class Runner:
    """Launches children one at a time in a scratch directory of the checkout."""

    def __init__(self, workdir: Path, nproc: int, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        OPENBLAS_NUM_THREADS=str(nproc), OMP_NUM_THREADS=str(nproc))
        self.report_path = workdir / "report.json"

    def launch(self, mode: str, args: list[str]) -> Child:
        self.report_path.unlink(missing_ok=True)
        cmd = [sys.executable]
        if mode == "trace":
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), str(self.report_path), mode, *args]
        err_path = self.workdir / "child.err"
        with open(err_path, "wb") as err:
            launched = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timeout = max(0.0, self.deadline - time.monotonic())
                    if not select.select([pidfd], [], [], timeout)[0]:
                        proc.kill()
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        report = None
        if self.report_path.exists():
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return Child(code=proc.returncode,
                     setup_s=report["ready"] - launched if report else math.nan,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0,
                     stderr=err_path.read_text(encoding="utf-8", errors="replace"),
                     report=report)

    def run_pass(self, invs: list[tuple[str, list[str]]], traced: bool,
                 digests: dict[str, str]) -> Pass:
        result = Pass(traced=traced)
        start = time.perf_counter()
        for csv_name, args in invs:
            csv_path = self.workdir / csv_name
            csv_path.unlink(missing_ok=True)
            child = self.launch("trace" if traced else "run", args)
            result.children.append(child)
            result.cpu_s += child.cpu_s
            result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
            data = csv_path.read_bytes() if csv_path.exists() else None
            result.csvs[csv_name] = data
            if child.code != 0 or child.report is None:
                tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
                result.failures.append((csv_name, f"exit {child.code}: {tail[0]}"))
                continue
            result.setups.append(child.setup_s)
            result.compute_s += child.report["compute_s"]
            result.failures += [(csv_name, p) for p in check_csv(args, data, digests)]
        result.wall_s = time.perf_counter() - start
        return result


# ----------------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------------

def _self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its direct child spans cover."""
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    return [end - start - inner[i] for i, (_, start, end, _, _) in enumerate(spans)]


def _import_self_s(stderr: str) -> dict[str, float]:
    """Self import time per top-level package, from ``-X importtime`` lines
    written before the child finished importing truncosc."""
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in stderr.split(IMPORTED_MARKER, 1)[0].splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0]) * 1e-6
    return totals


def layer_metrics(traced: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its children."""
    group_of = {fn: group for group, fns in GROUPS.items() for fn in fns}
    values = {f"{g}.{k}": 0.0 for g in GROUPS for k in ("calls", "self_s")}
    values.update({f"{layer}.{k}": 0.0 for layer in LAYERS for k in ("self_s", "errors")})
    cache = {g: [0, 0] for g in CACHED_GROUPS}
    for child in traced.children:
        if child.report is None:
            continue
        spans = child.report["spans"]
        for (name, *_, error), self_s in zip(spans, _self_times(spans)):
            layer = name.split(".", 1)[0]
            values[f"{layer}.self_s"] += self_s
            values[f"{layer}.errors"] += int(error)
            group = group_of.get(name)
            if group is not None:
                values[f"{group}.calls"] += 1
                values[f"{group}.self_s"] += self_s
        for fn, (hits, misses) in child.report["caches"].items():
            if group_of.get(fn) in cache:
                cache[group_of[fn]][0] += hits
                cache[group_of[fn]][1] += misses
    for group, (hits, misses) in cache.items():
        values[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cli.csv_bytes"] = float(sum(len(d) for d in traced.csvs.values() if d))
    return values


# ----------------------------------------------------------------------------
# environment record
# ----------------------------------------------------------------------------

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "truncosc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment(runner: Runner, nproc: int, seed: int) -> dict:
    """Versions, BLAS build and threads, and provenance; also warms the
    bytecode cache so the first timed child does not compile."""
    child = runner.launch("env", [])
    if child.code != 0 or child.report is None:
        raise BenchError(f"import of truncosc failed: {child.stderr.strip()[-500:]}")
    package = Path(child.report["package"]).resolve()
    if SRC.resolve() not in package.parents:
        raise BenchError(f"truncosc was imported from {package}, not from {SRC}")
    report = child.report
    return {"nproc": nproc, "python": report["python"], "numpy": report["numpy"],
            "scipy": report["scipy"], "openblas_config": report["openblas"]["config"],
            "openblas_threads": report["openblas"]["threads"],
            "git_commit": _git_commit(), "src_sha256": _src_sha256(), "seed": seed}


# ----------------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------------

def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        # one sample, or none when every invocation failed
        q1 = median = q3 = values[0] if values else 0.0
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(passes: list[Pass], trace: bool, units: dict[str, str]) -> dict[str, dict]:
    """Median, quartiles and sample count of every metric the run reports."""
    plain = [p for p in passes if not p.traced]
    if not trace:
        stats = {
            "setup_s": _stats([s for p in plain for s in p.setups]),
            "wall_s": _stats([p.wall_s for p in plain]),
            "compute_s": _stats([p.compute_s for p in plain]),
            "cpu_s": _stats([p.cpu_s for p in plain]),
            "peak_rss_mb": _stats([p.peak_rss_mb for p in plain]),
        }
    else:
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p) for p in traced]
        stats = {name: _stats([m[name] for m in per_pass]) for name in per_pass[0]}
        imports = [_import_self_s(c.stderr) for p in traced for c in p.children]
        for package in IMPORT_PACKAGES:
            stats[f"setup.{package}_s"] = _stats([t[package] for t in imports])
        overhead = (statistics.median(p.compute_s for p in traced)
                    - statistics.median(p.compute_s for p in plain))
        stats["trace.overhead_s"] = _stats([overhead])
    for name, entry in stats.items():
        entry["unit"] = units[name]
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    started = time.monotonic()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not (SRC / "truncosc" / "__init__.py").is_file():
        raise BenchError(f"no truncosc package under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    digests = load_digests()
    invs = invocations(args.workload, args.seed)
    workdir = WORK_ROOT / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, nproc, started + HARD_LIMIT_S)
        env = environment(runner, nproc, args.seed)
        passes: list[Pass] = []
        measure_start = time.monotonic()
        # Trace runs alternate untraced and traced passes, so both see the
        # same machine state; the difference of their compute is the overhead.
        # No pass starts that would, at the mean pass length, end after
        # --seconds, so a run does not overrun its length by up to a pass.
        while True:
            passes.append(runner.run_pass(
                invs, traced=bool(args.trace) and len(passes) % 2 == 1, digests=digests))
            elapsed = time.monotonic() - measure_start
            if (len(passes) >= (2 if args.trace else 1)
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    reference = passes[0].csvs
    for p in passes[1:]:
        for name, data in p.csvs.items():
            if data is not None and reference[name] is not None and data != reference[name]:
                p.failures.append((name, "bytes differ from the first pass's CSV"))
    failures = [f"{name}: {problem}" for p in passes for name, problem in p.failures]
    attempted = sum(len(p.csvs) for p in passes)
    failed = sum(len({name for name, _ in p.failures}) for p in passes)
    stats = summarize(passes, bool(args.trace), units)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {name: {"value": stats[name]["median"], "unit": stats[name]["unit"]}
               for name in wanted}
    detail = {
        "workload": args.workload, "trace": args.trace, "passes": len(passes),
        "invocations": [a for _, a in invs], "env": env, "fail_ratio": failed / attempted,
        "failures": failures[:20], "stats": stats,
        "compute_s_by_invocation": {
            name: _stats([p.children[i].report["compute_s"] for p in passes
                          if not p.traced and p.children[i].report])
            for i, (name, _) in enumerate(invs)},
        "csv_sha256": {n: hashlib.sha256(d).hexdigest() for n, d in reference.items() if d},
    }
    for name, entry in stats.items():
        print(f"{name:34s} {entry['median']:.6g} {entry['unit']} "
              f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n {entry['n']}]", file=sys.stderr)
    print(f"fail_ratio {failed}/{attempted}", file=sys.stderr)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
