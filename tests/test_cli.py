"""End-to-end command-line runs in a scratch directory.

Most runs go through truncosc.cli.main in process. One exit-code smoke
test starts `python -m truncosc` as a child to cover the entry point, and
the import-path guard at the end starts a fresh interpreter.
"""

import csv
import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from truncosc import cli, coherent, entangle, numerics, observables, susy
from truncosc.cli import RunConfig, main
from truncosc.entangle import BeamSplitterSetting, EntropyRecord
from truncosc.fock import Basis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = PERFBENCH / "digests.json"
README = Path(__file__).resolve().parents[1] / "README.md"
BALANCED = BeamSplitterSetting(math.pi / 2, 0.0)


def run_cli_process(args, cwd, env):
    return subprocess.run([sys.executable, "-m", "truncosc"] + args, cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=600)


@dataclass
class CliResult:
    returncode: int
    stderr: str


@pytest.fixture
def run_cli(capsys, monkeypatch):
    """Run the CLI in process with the given cwd; return its exit code and stderr."""
    def run(args, cwd):
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        return CliResult(code, capsys.readouterr().err)
    return run


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


# ----------------------------------------------------------------------------
# density
# ----------------------------------------------------------------------------

def test_density_profiles_normalize_and_peak_once(tmp_path, run_cli):
    out = tmp_path / "density.csv"
    res = run_cli(["--command", "density", "--family", "lowering",
                   "--zmin", "0.1", "--zmax", "0.1", "--steps", "2",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    comment, header, rows = read_csv(out)
    assert header[0] == "x"
    assert len(rows) == 600
    x = np.array([float(r[0]) for r in rows])
    prof = np.array([float(r[1]) for r in rows])
    # unit norm on the half-line (density of a normalized state)
    assert np.trapezoid(prof, x) == pytest.approx(1.0, abs=1e-3)
    # single interior maximum for a near-ground state
    peak = int(np.argmax(prof))
    assert 0 < peak < x.size - 1
    assert np.all(np.diff(prof[:peak + 1]) > 0)
    assert np.all(np.diff(prof[peak:]) < 0)


def test_density_partner_tower_develops_two_maxima(tmp_path, run_cli):
    out = tmp_path / "density_new.csv"
    res = run_cli(["--command", "density", "--family", "susy-new",
                   "--model", "SUSY_Q4", "--zmin", "10", "--zmax", "10",
                   "--steps", "2", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    _, _, rows = read_csv(out)
    prof = np.array([float(r[1]) for r in rows])
    interior = (prof[1:-1] > prof[:-2]) & (prof[1:-1] > prof[2:])
    assert int(np.sum(interior)) == 2


def test_density_requires_the_partner_model_for_partner_families(tmp_path, cli_env):
    # exit-code smoke test through the `python -m truncosc` entry point
    res = run_cli_process(["--command", "density", "--family", "susy-iso",
                           "--out", str(tmp_path / "x.csv")], tmp_path, cli_env)
    assert res.returncode == 2
    assert "configuration error" in res.stderr


# ----------------------------------------------------------------------------
# uncertainty
# ----------------------------------------------------------------------------

def test_uncertainty_scan_columns_and_values(tmp_path, run_cli):
    out = tmp_path / "unc.csv"
    res = run_cli(["--command", "uncertainty", "--family", "lowering",
                   "--zmin", "1", "--zmax", "1", "--steps", "2",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    _, header, rows = read_csv(out)
    assert header == ["z_abs", "sigma_x", "sigma_p", "product"]
    assert float(rows[0][3]) == pytest.approx(0.5528021981, abs=1e-8)


def test_uncertainty_below_the_30_level_window_sums_the_kept_levels(tmp_path, run_cli):
    # a 16-level basis caps the truncated oscillator's 30-level window; up to
    # |z| = 0.5 the state keeps nothing above level 15, so the scan is the
    # default basis's to rounding
    values = []
    for basis in ("16", "64"):
        out = tmp_path / f"unc{basis}.csv"
        res = run_cli(["--command", "uncertainty", "--zmax", "0.5", "--basis", basis,
                       "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        values.append(np.array(read_csv(out)[2], dtype=float))
    assert np.max(np.abs(values[0] - values[1])) < 1e-11


def test_uncertainty_partner_tower_squeezing_flip(tmp_path, run_cli):
    out = tmp_path / "unc_iso.csv"
    res = run_cli(["--command", "uncertainty", "--family", "susy-iso",
                   "--model", "SUSY_Q4", "--zmin", "0.25", "--zmax", "1.25",
                   "--steps", "2", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    _, _, rows = read_csv(out)
    lo = [float(v) for v in rows[0]]
    hi = [float(v) for v in rows[1]]
    # the squeezed quadrature swaps sides across |z| ~ 1
    assert lo[1] < lo[2]
    assert hi[1] > hi[2]


def test_uncertainty_divergent_family_reports_numerical_failure(tmp_path, run_cli):
    # labels past the displacement disk are outside the family's domain, so
    # the configuration is rejected before any state is built
    out = tmp_path / "x.csv"
    res = run_cli(["--command", "uncertainty", "--family", "displacement",
                   "--zmin", "0.55", "--zmax", "0.6", "--steps", "2",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "1/2" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["density", "uncertainty", "entropy"])
def test_displacement_scans_end_inside_the_radius_one_half(tmp_path, run_cli, command):
    out = tmp_path / "x.csv"
    args = ["--command", command, "--family", "displacement", "--steps", "2", "--out", str(out)]
    res = run_cli([*args, "--zmax", "0.5"], tmp_path)
    assert res.returncode == 2
    assert "|z| < 1/2" in res.stderr
    res = run_cli([*args, "--zmax", "0.1"], tmp_path)
    assert res.returncode == 0, res.stderr


# ----------------------------------------------------------------------------
# entropy
# ----------------------------------------------------------------------------

def test_entropy_scan_outputs_flat_half_entropy(tmp_path, run_cli):
    out = tmp_path / "ent.csv"
    res = run_cli(["--command", "entropy", "--family", "lowering",
                   "--zmin", "0", "--zmax", "1", "--steps", "3",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    _, header, rows = read_csv(out)
    assert header == ["z_abs", "theta", "phi", "S", "S_converged", "cutoff"]
    for row in rows:
        assert float(row[3]) == pytest.approx(0.5, abs=1e-3)
        assert row[4] == "true"
        assert row[5] == "64"
    # cells carry 12 significant digits
    assert float(rows[0][1]) == pytest.approx(math.pi / 2, rel=1e-11)


def test_entropy_partner_tower_band(tmp_path, run_cli):
    out = tmp_path / "ent_new.csv"
    res = run_cli(["--command", "entropy", "--family", "susy-new",
                   "--model", "SUSY_Q4", "--basis", "80",
                   "--zmin", "1", "--zmax", "1", "--steps", "2",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    _, _, rows = read_csv(out)
    assert float(rows[0][3]) == pytest.approx(0.539369533205, abs=1e-6)


def test_entropy_warns_once_per_unconverged_row(tmp_path, run_cli, monkeypatch):
    # no configuration inside the size bounds was found unconverged, so the
    # scan records are stubbed: the middle row misses the 5e-3 probe
    def scan(family, z_moduli, setting, cutoff):
        return [EntropyRecord(z_abs=float(z), entropy=0.25,
                              entropy_refined=0.25 + 0.01 * (i == 1),
                              converged=i != 1, cutoff=cutoff)
                for i, z in enumerate(z_moduli)]

    monkeypatch.setattr(cli, "entropy_scan", scan)
    out = tmp_path / "ent.csv"
    res = run_cli(["--command", "entropy", "--zmin", "0", "--zmax", "1", "--steps", "3",
                   "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    warnings = [line for line in res.stderr.splitlines() if line.startswith("warning")]
    assert warnings == ["warning: unconverged row at |z| = 0.5: S = 0.25 at cutoff 64, "
                        "entropy_refined = 0.26"]
    # the CSV holds the flag only, as before
    _, header, rows = read_csv(out)
    assert header == ["z_abs", "theta", "phi", "S", "S_converged", "cutoff"]
    assert [row[4] for row in rows] == ["true", "false", "true"]
    assert "0.26" not in out.read_text()


def test_converged_entropy_scans_print_no_warning(tmp_path, run_cli):
    res = run_cli(["--command", "entropy", "--zmin", "0", "--zmax", "1", "--steps", "2",
                   "--out", str(tmp_path / "ent.csv")], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "warning" not in res.stderr


# ----------------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------------

def test_identical_configs_write_byte_identical_csvs(tmp_path, run_cli):
    args = ["--command", "entropy", "--family", "lowering",
            "--zmin", "0", "--zmax", "0.8", "--steps", "3"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(out1)], tmp_path).returncode == 0
    assert run_cli(args + ["--out", str(out2)], tmp_path).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_hash_tracks_the_configuration(tmp_path, run_cli):
    base = ["--command", "uncertainty", "--family", "lowering",
            "--zmin", "0.5", "--zmax", "1", "--steps", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(base + ["--out", str(a)], tmp_path)
    run_cli(base[:-1] + ["3", "--out", str(b)], tmp_path)
    hash_a = read_csv(a)[0].split()[1]
    hash_b = read_csv(b)[0].split()[1]
    assert hash_a != hash_b


def test_config_hash_covers_the_seed_config_contents(tmp_path):
    seeds = "-5.5 inf\n-4.5 0\n-3.5 inf\n-2.5 0\n"
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(seeds)
    b.write_text(seeds)

    def digest(path):
        return RunConfig("validate", seed_config=str(path)).config_hash()

    assert digest(a) == digest(b)
    b.write_text(seeds.replace("-2.5 0", "-2.25 0"))
    assert digest(a) != digest(b)


def _recorded_runs():
    return sorted(json.loads(DIGESTS.read_text()).items())


@pytest.mark.parametrize("key, digest", _recorded_runs(),
                         ids=[key.split()[-1] for key, _ in _recorded_runs()])
def test_seed_runs_write_the_recorded_csv_bytes(tmp_path, run_cli, key, digest):
    # the benchmark's seed-0 invocations; their CSVs must stay byte-identical
    args = key.split()
    out = tmp_path / args[args.index("--out") + 1]
    assert run_cli(args, tmp_path).returncode == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _many_thread_child(probe: str, cwd: Path, cli_env: dict) -> list:
    """Run probe in a child whose OpenBLAS loads before truncosc, with one
    thread per CPU (OpenBLAS caps its count there); check that count and
    return the list the probe prints last."""
    threads = len(os.sched_getaffinity(0))
    head = (f"import sys; sys.path.insert(0, {str(PERFBENCH)!r})\n"
            "import scipy.linalg\n"
            "from child import _openblas\n"
            "from truncosc.cli import main\n"
            "print(_openblas()['threads'])\n")
    env = dict(cli_env, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    res = subprocess.run([sys.executable, "-c", head + probe], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[0] == str(threads)
    return json.loads(res.stdout.splitlines()[-1])


def test_recorded_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, cli_env):
    # truncosc loads OpenBLAS with one thread; a child whose OpenBLAS is
    # already loaded with one thread per CPU must write the same recorded bytes
    runs = _recorded_runs()
    probe = f"print([main(key.split()) for key, _ in {runs!r}])"
    assert _many_thread_child(probe, tmp_path, cli_env) == [0] * len(runs)
    for key, digest in runs:
        args = key.split()
        out = tmp_path / args[args.index("--out") + 1]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, key


def test_drawn_angle_csv_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, cli_env):
    # seed 1's observables and entropy invocations, whose entropy angles are
    # drawn away from pi/2: the CLI's one-thread child and a child whose
    # OpenBLAS runs one thread per CPU write the same bytes
    listing = ("import json, sys; sys.path.insert(0, 'perfbench'); from run import invocations; "
               "print(json.dumps([args for workload in ('observables', 'entropy') "
               "for _, args in invocations(workload, 1)]))")
    res = subprocess.run([sys.executable, "-c", listing], cwd=PERFBENCH.parent,
                         capture_output=True, text=True, check=True)
    runs = json.loads(res.stdout)
    assert len(runs) == 7
    probe = f"print([main(args) for args in {runs!r}])"
    one, many = tmp_path / "one", tmp_path / "many"
    one.mkdir()
    many.mkdir()
    res = subprocess.run([sys.executable, "-c", "from truncosc.cli import main\n" + probe],
                         cwd=one, env=cli_env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == str([0] * len(runs))
    assert _many_thread_child(probe, many, cli_env) == [0] * len(runs)
    for args in runs:
        assert (one / args[-1]).read_bytes() == (many / args[-1]).read_bytes(), args


# Prints {library path: thread count} for every OpenBLAS mapped into the
# process; perfbench/child.py's _openblas() reads the first one alone
BLAS_THREADS = r"""
import ctypes, json
def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get_threads = getattr(lib, name, None)
            if get_threads is not None:
                get_threads.argtypes = []
                get_threads.restype = ctypes.c_int
                counts[path] = get_threads()
                break
    print(json.dumps(counts))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads /proc/self/maps")
def test_truncosc_loads_every_openblas_with_one_thread(tmp_path, cli_env):
    # asked for two threads, numpy's OpenBLAS runs one once truncosc is
    # imported, and scipy's, which validate loads, runs one too
    probe = BLAS_THREADS + (
        "import truncosc.cli\n"
        "blas_threads()\n"
        "assert truncosc.cli.main(['--command', 'validate', '--out', 'v.csv']) == 0\n"
        "blas_threads()\n")
    env = dict(cli_env, OPENBLAS_NUM_THREADS="2")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    at_import, after_validate = map(json.loads, res.stdout.splitlines()[-2:])
    assert at_import and set(at_import) <= set(after_validate)
    assert set(at_import.values()) == set(after_validate.values()) == {1}


def test_partner_uncertainty_builds_its_tables_from_one_row_call(tmp_path, run_cli,
                                                                 monkeypatch):
    calls = []
    rows = observables.rows

    def counting_rows(*args, **kwargs):
        calls.append(args[:2])
        return rows(*args, **kwargs)

    observables._quadrature_tables.cache_clear()
    monkeypatch.setattr(observables, "rows", counting_rows)
    res = run_cli(["--command", "uncertainty", "--family", "susy-iso",
                   "--model", "SUSY_Q4", "--out", str(tmp_path / "u.csv")], tmp_path)
    assert res.returncode == 0, res.stderr
    assert calls == [("susy-iso", 48)]


# ----------------------------------------------------------------------------
# configuration errors
# ----------------------------------------------------------------------------

def test_rejects_degenerate_grids_and_missing_output(tmp_path, run_cli):
    # each message names the flag at fault
    out = ["--out", str(tmp_path / "x.csv")]
    for args, message in [
            (["--command", "entropy", "--steps", "1", *out], "--steps must be at least 2"),
            (["--command", "density"], "--out is required for --command density"),
            (["--command", "uncertainty", "--zmin", "2", "--zmax", "1", *out],
             "--zmin must not exceed --zmax"),
            (["--command", "uncertainty", "--zmin", "-1", *out], "--zmin must be non-negative"),
            (["--command", "entropy", "--basis", "4", *out], "--basis must be at least 8"),
            (["--command", "entropy", "--theta", "4", *out], "--theta must lie in [0, pi)")]:
        res = run_cli(args, tmp_path)
        assert res.returncode == 2
        assert res.stderr == f"configuration error: {message}\n", args


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--zmin", "--zmax", "--theta", "--phi"])
def test_rejects_non_finite_scan_parameters(tmp_path, run_cli, flag, value):
    out = tmp_path / "x.csv"
    res = run_cli(["--command", "entropy", flag, value, "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert f"{flag} must be finite" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--command", "entropy", "--basis", "1500"],
    ["--command", "density", "--basis", "300000"],
    ["--command", "density", "--steps", "100000"],
    ["--command", "uncertainty", "--steps", "1000000000"],
    ["--command", "uncertainty", "--basis", "100000000"],
    # each of these items fits alone, but together they exceed the budget
    ["--command", "entropy", "--basis", "1200"],
    ["--command", "density", "--steps", "50000"],
    ["--command", "uncertainty", "--steps", "5000000"],
])
def test_runs_above_the_memory_budget_are_configuration_errors(tmp_path, run_cli, args):
    # sized from the layout: nothing is allocated before the rejection
    out = tmp_path / "x.csv"
    res = run_cli([*args, "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "MiB budget" in res.stderr
    assert not out.exists()


def test_entropy_above_the_basis_maximum_is_rejected_before_any_sweep(
        tmp_path, run_cli, monkeypatch):
    # one level past the maximum, the refined cutoff's partner projections
    # (324 MiB) and the sweep's arrays (700 MiB) together pass the budget
    calls = []
    monkeypatch.setattr(entangle, "gram_matrix", lambda *a: calls.append("gram"))
    monkeypatch.setattr(entangle, "_rotate_in_place", lambda *a: calls.append("sweep"))
    out = tmp_path / "x.csv"
    basis = cli._limit("entropy", "--basis") + 1
    res = run_cli(["--command", "entropy", "--basis", str(basis), "--out", str(out)],
                  tmp_path)
    assert res.returncode == 2
    assert "MiB budget" in res.stderr
    assert not out.exists()
    assert calls == []


@pytest.mark.parametrize("family, basis, steps", [
    ("lowering", 43, 9), ("lowering", 64, 9), ("susy-new", 80, 9), ("susy-iso", 80, 9),
    ("susy-iso", 160, 9), ("susy-iso", 160, 1)],
    ids=["lowering-43", "lowering-64", "susy-new-80", "susy-iso-80", "susy-iso-160",
         "susy-iso-160-one-point"])
def test_entropy_memory_model_bounds_the_traced_peak(family, basis, steps):
    # a scan from empty caches: the peak is either the refined cutoff's
    # partner projections or the splitter sweep over the packed states, and
    # the model must bound both; a one-point scan at basis 160 peaks in the
    # projections (14.8 MB traced), past the sweep's part of the model
    entangle._susy_level_projections.cache_clear()
    z_grid = np.linspace(0.0, 1.0 if family == "susy-iso" else 2.0, steps)
    tracemalloc.start()
    try:
        entangle.entropy_scan(family, z_grid, BALANCED, cutoff=basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = cli._largest_array_bytes("entropy", basis, steps)
    assert peak <= model, f"traced {peak / 1e6:.2f} MB, model {model / 1e6:.2f} MB"


def test_entropy_memory_does_not_grow_with_the_steps():
    # a scan frees each chunk's packed states before the next chunk's, so past
    # one chunk the traced peak grows by the records alone
    chunk = entangle.points_per_sweep(43)
    peaks = []
    for steps in (chunk, 3 * chunk):
        tracemalloc.start()
        try:
            entangle.entropy_scan("lowering", np.linspace(0.0, 2.0, steps), BALANCED, cutoff=43)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= cli._POINT_BYTES["entropy"] * 2 * chunk, peaks


@pytest.mark.parametrize("command, family, basis, steps", [
    ("density", "lowering", 1000, 9), ("density", "susy-iso", 500, 9),
    ("uncertainty", "susy-iso", 250_000, 2), ("validate", "lowering", 20_000, 9)])
def test_memory_model_bounds_the_traced_peak_of_basis_sized_runs(
        tmp_path, command, family, basis, steps):
    # from empty caches; in density and uncertainty the per-level term
    # dominates the model (two uncertainty points already build one state
    # next to another, and traced builds are slow), while validate reads no
    # basis and is bounded by the fixed term alone.  scipy's module objects
    # are loaded first, as they are no array of the run
    for module in ("scipy.linalg", "scipy.special"):
        importlib.import_module(module)
    for cache in (numerics.gauss_halfline, observables._quadrature_tables, susy._rationals,
                  entangle._susy_level_projections):
        cache.cache_clear()
    config = RunConfig(command=command, family=family,
                       model="SUSY_Q4" if family == "susy-iso" else "TRUNC",
                       z_steps=steps, basis_size=basis,
                       output_path=str(tmp_path / "x.csv"))
    config.validate()
    tracemalloc.start()
    try:
        cli._HANDLERS[command](config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    model = cli._largest_array_bytes(command, basis, steps)
    assert peak <= model, f"traced {peak / 1e6:.2f} MB, model {model / 1e6:.2f} MB"


def test_readme_quotes_the_largest_accepted_sizes():
    rows = re.findall(r"^\| (\w+) \| (\d+) \| (\d+) \|$",
                      README.read_text(encoding="utf-8"), re.M)
    assert sorted(command for command, *_ in rows) == ["density", "entropy", "uncertainty"]
    for command, basis, steps in rows:
        assert (int(basis), int(steps)) == (
            cli._limit(command, "--basis"), cli._limit(command, "--steps")), command


@pytest.mark.parametrize("flag, command", [
    (flag, command) for flag in ("--basis", "--steps")
    for command in ("density", "uncertainty", "entropy")])
def test_help_states_the_largest_accepted_sizes(command, flag):
    limit = cli._limit(command, flag)
    assert f"{limit} for {command}" in " ".join(cli.build_parser().format_help().split())

    def fits(value):
        basis, steps = (value, 9) if flag == "--basis" else (64, value)
        return cli._largest_array_bytes(command, basis, steps) <= cli._MEMORY_BUDGET

    assert fits(limit) and not fits(limit + 1)


@pytest.mark.parametrize("args, minimum", [
    (["--basis", "8"], 43),
    (["--basis", "42"], 43),
    (["--family", "susy-iso", "--model", "SUSY_Q4"], 78),
    (["--family", "susy-new", "--model", "SUSY_Q4", "--basis", "77"], 78),
])
def test_entropy_cutoff_below_the_embedded_window_is_a_configuration_error(
        tmp_path, run_cli, args, minimum):
    res = run_cli(["--command", "entropy", *args,
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2
    assert f"needs basis_size >= {minimum}" in res.stderr


def test_partner_entropy_minimum_is_the_first_cutoff_that_embeds_mode_a():
    # mode A, the lowest new partner level, must keep 1 - 1e-6 of its norm
    # in the cutoff's odd levels; cutoffs 76 and 77 hold the same 38
    def recovered(cutoff):
        return float(np.sum(entangle._susy_level_projections(Basis.SUSY_NEW, 1, cutoff)[0] ** 2))

    assert recovered(76) < 1.0 - 1e-6 <= recovered(78)
    assert entangle.min_cutoff("susy-new")[0] == entangle.min_cutoff("susy-iso")[0] == 78
    assert entangle.min_cutoff("lowering")[0] == 43


@pytest.mark.parametrize("family, basis, cause", [
    ("susy-new", 77, "projects mode A"), ("susy-iso", 77, "projects mode A"),
    ("lowering", 42, "embeds 20 levels")])
def test_entropy_minimum_message_names_the_binding_cause(tmp_path, run_cli, family,
                                                         basis, cause):
    # the finite tower holds 2 levels and susy-iso's 32 would fit in 67: on
    # both partner towers the floor of 78 comes from mode A's projection
    model = "TRUNC" if family == "lowering" else "SUSY_Q4"
    res = run_cli(["--command", "entropy", "--family", family, "--model", model,
                   "--basis", str(basis), "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2
    assert cause in res.stderr
    assert ("embeds" in res.stderr) == (family == "lowering")


@pytest.mark.parametrize("args", [
    ["--zmax", "40"],
    ["--family", "susy-iso", "--model", "SUSY_Q4", "--basis", "128",
     "--zmin", "4", "--zmax", "4", "--steps", "2"],
])
def test_uncertainty_window_that_drops_probability_is_a_numerical_failure(
        tmp_path, run_cli, args):
    out = tmp_path / "x.csv"
    res = run_cli(["--command", "uncertainty", *args, "--out", str(out)], tmp_path)
    assert res.returncode == 3
    assert "TruncationTooSmall" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    # the norm sum overflows: the amplitudes would come out all zero
    ["--command", "uncertainty", "--zmin", "0", "--zmax", "1e6", "--steps", "2"],
    # the amplitudes themselves overflow: the state would come out NaN
    ["--command", "uncertainty", "--zmin", "0", "--zmax", "1e7", "--steps", "2"],
    ["--command", "density", "--zmax", "1e7"],
    ["--command", "density", "--family", "susy-iso", "--model", "SUSY_Q4",
     "--zmax", "1e200"],
    # sqrt(2) z overflows: the finite tower's amplitude is inf + NaN i, its norm NaN
    *([*command, "--family", "susy-new", "--model", "SUSY_Q4",
       "--zmin", "1.3e308", "--zmax", "1.3e308"]
      for command in (["--command", "density"], ["--command", "uncertainty"],
                      ["--command", "entropy", "--basis", "80"])),
])
def test_labels_whose_state_overflows_are_a_numerical_failure(tmp_path, run_cli, args):
    out = tmp_path / "x.csv"
    with np.errstate(all="ignore"):
        res = run_cli([*args, "--out", str(out)], tmp_path)
    assert res.returncode == 3
    assert "NotNormalizable" in res.stderr
    assert not out.exists()


def test_an_overflowing_susy_iso_state_is_named_as_such(tmp_path, run_cli):
    # its amplitudes are the lin-displacement series, but the state is susy-iso's
    out = tmp_path / "x.csv"
    res = run_cli(["--command", "density", "--family", "susy-iso", "--model", "SUSY_Q4",
                   "--zmax", "1e200", "--out", str(out)], tmp_path)
    assert res.returncode == 3
    assert "susy-iso state" in res.stderr
    assert "lin-displacement" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--command", "uncertainty", "--zmin", "0", "--zmax", "1e7", "--steps", "2"],
    ["--command", "density", "--family", "susy-new", "--model", "SUSY_Q4",
     "--zmax", "1e200"],
    ["--command", "entropy", "--family", "susy-new", "--model", "SUSY_Q4",
     "--basis", "80", "--zmin", "1.3e308", "--zmax", "1.3e308"],
])
def test_an_overflowing_state_prints_no_numpy_warning(tmp_path, cli_env, args):
    # a fresh interpreter, so that numpy's warnings reach stderr as a user sees them
    res = run_cli_process([*args, "--out", "y.csv"], tmp_path, cli_env)
    assert res.returncode == 3
    assert "numerical failure (NotNormalizable)" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert not (tmp_path / "y.csv").exists()


# ----------------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------------

def test_validate_suite_passes_at_default_basis(tmp_path, run_cli):
    out = tmp_path / "validate.csv"
    res = run_cli(["--command", "validate", "--out", str(out)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "0 failures" in res.stderr
    _, header, rows = read_csv(out)
    assert header == ["check", "status", "detail"]
    statuses = {row[1] for row in rows}
    assert statuses <= {"PASS", "REPORT"}
    assert len(rows) >= 19


def test_validate_rows_do_not_depend_on_the_basis_flag(tmp_path, run_cli):
    # the suite is fixed: --basis reaches only the CSV's comment line
    rows = []
    for basis_args in ([], ["--basis", "8"], ["--basis", "200"]):
        out = tmp_path / "v.csv"
        res = run_cli(["--command", "validate", *basis_args, "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        rows.append(read_csv(out)[1:])
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_validate_accepts_a_well_formed_seed_config(tmp_path, run_cli):
    cfg = tmp_path / "seeds.txt"
    cfg.write_text(
        "# factorization energies and parity asymmetries\n"
        "-5.5 inf\n-4.5 0\n-3.5 inf\n-2.5 0\n")
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "seed-config-model" in res.stderr


def test_validate_fails_on_inadmissible_seed_energies(tmp_path, run_cli):
    cfg = tmp_path / "seeds.txt"
    cfg.write_text("-2.5 0\n-3.5 inf\n")  # not strictly increasing
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 1
    assert "FAIL" in res.stderr


def test_validate_rejects_an_infinite_seed_energy(tmp_path, run_cli):
    cfg = tmp_path / "seeds.txt"
    cfg.write_text("-inf 0\n-2.5 0\n")
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 2
    assert "epsilon must be finite" in res.stderr


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_validate_fails_a_seed_whose_residual_is_nan(tmp_path, run_cli):
    # at epsilon = -1e308 the seed overflows (u = inf) and its residual is NaN
    cfg = tmp_path / "seeds.txt"
    cfg.write_text("-1e308 0\n-2.5 0\n")
    out = tmp_path / "v.csv"
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(out)], tmp_path)
    assert res.returncode == 1
    _, _, rows = read_csv(out)
    row = next(r for r in rows if r[0] == "seed-config-model")
    assert row[1] == "FAIL"
    assert "misses its defining equation" in ",".join(row[2:])


def test_validate_doubles_the_quotes_of_a_detail(tmp_path, run_cli, monkeypatch):
    # a crashed check reports its exception text, which may hold quotes
    def crash():
        raise ValueError('bad "x", y')

    monkeypatch.setattr(cli, "_CHECKS", (("crashes", crash),))
    out = tmp_path / "v.csv"
    res = run_cli(["--command", "validate", "--out", str(out)], tmp_path)
    assert res.returncode == 1
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1:] == [["check", "status", "detail"],
                        ["crashes", "FAIL", 'ValueError: bad "x", y']]


def test_validate_fails_an_identity_check_whose_moment_does_not_converge(
        tmp_path, run_cli, monkeypatch):
    # quad would only warn and print the moment; qag raises, so the rows fail
    def one_panel(f, a, b, epsabs, epsrel, limit):
        return numerics.qag(f, a, b, epsabs, epsrel, 1)  # limit 1 is ier 1

    monkeypatch.setattr(coherent, "qag", one_panel)
    out = tmp_path / "v.csv"
    res = run_cli(["--command", "validate", "--out", str(out)], tmp_path)
    assert res.returncode == 1
    failed = {r[0]: ",".join(r[2:]) for r in read_csv(out)[2] if r[1] == "FAIL"}
    assert sorted(failed) == ["identity-resolution-corrected",
                              "identity-resolution-reference", "iso-measure-identity"]
    assert all("NonConvergence: qag on [0.0, " in d and "ier 1," in d
               for d in failed.values())


def test_every_command_rejects_an_unreadable_seed_config(tmp_path, run_cli):
    # the config hash reads the seed file, so no command may start without it
    out = tmp_path / "d.csv"
    res = run_cli(["--command", "density", "--seed-config", str(tmp_path / "none.txt"),
                   "--out", str(out)], tmp_path)
    assert res.returncode == 2
    assert "cannot read seed config" in res.stderr
    assert not out.exists()


def test_validate_rejects_unparsable_seed_config(tmp_path, run_cli):
    cfg = tmp_path / "seeds.txt"
    cfg.write_text("-5.5 banana\n")
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 2
    assert "configuration error" in res.stderr


@pytest.mark.parametrize("command", ["validate", "entropy"])
def test_a_seed_config_that_is_not_utf8_is_a_configuration_error(tmp_path, run_cli, command):
    cfg = tmp_path / "seeds.txt"
    cfg.write_bytes(b"\xff\xfe-5.5 0.1\n")
    res = run_cli(["--command", command, "--seed-config", str(cfg),
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2
    assert "configuration error: cannot read seed config" in res.stderr


@pytest.mark.parametrize("command", ["uncertainty", "validate"])
def test_out_in_a_missing_directory_is_rejected_before_any_computation(
        tmp_path, run_cli, monkeypatch, command):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setitem(cli._HANDLERS, command, never)
    res = run_cli(["--command", command, "--out", str(tmp_path / "no" / "x.csv")], tmp_path)
    assert res.returncode == 2
    assert res.stderr == f"configuration error: --out directory {tmp_path / 'no'} does not exist\n"


@pytest.mark.parametrize("command", ["uncertainty", "validate"])
def test_out_naming_a_directory_is_rejected_before_any_computation(
        tmp_path, run_cli, monkeypatch, command):
    def never(config):
        raise AssertionError("the run started")

    monkeypatch.setitem(cli._HANDLERS, command, never)
    res = run_cli(["--command", command, "--out", str(tmp_path)], tmp_path)
    assert res.returncode == 2
    assert res.stderr == f"configuration error: cannot write {tmp_path}: it is a directory\n"


def test_a_csv_that_cannot_be_written_is_a_configuration_error(tmp_path, run_cli):
    res = run_cli(["--command", "uncertainty", "--out", str(tmp_path)], tmp_path)
    assert res.returncode == 2
    assert res.stderr.startswith(f"configuration error: cannot write {tmp_path}: ")
    assert res.stderr.count("\n") == 1


# ----------------------------------------------------------------------------
# import path
# ----------------------------------------------------------------------------

def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path, cli_env):
    # no scipy module at all: only validate needs scipy, and it imports
    # each piece on first use
    probe = ("import sys, truncosc.cli\n"
             "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=cli_env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_cli_import_and_its_runs_leave_scipy_special_unloaded(tmp_path, cli_env):
    # the Legendre rules are frozen and the splitter needs no eigensolve,
    # so only validate loads scipy
    runs = [[*family, "--command", command, "--zmax", "0.8", "--steps", "3",
             "--out", f"{command}-{i}.csv"]
            for i, family in enumerate((
                [], ["--family", "susy-iso", "--model", "SUSY_Q4", "--basis", "80"]))
            for command in ("density", "uncertainty", "entropy")]
    probe = ("import sys\nfrom truncosc.cli import main\n"
             "def scipy_loaded():\n"
             "    return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
             "print(scipy_loaded())\n"
             f"codes = [main(args) for args in {runs!r}]\n"
             "print(codes, scipy_loaded())")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=cli_env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False", f"{[0] * len(runs)} False"]


def test_validate_leaves_scipy_integrate_unloaded(tmp_path, cli_env):
    # the radial moments come from numerics.qag; only the beam-splitter
    # check's expm oracle loads scipy, and scipy.linalg is all it needs
    probe = ("import sys\nfrom truncosc.cli import main\n"
             "code = main(['--command', 'validate', '--out', 'validate.csv'])\n"
             "print(code, 'scipy.integrate' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=cli_env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["0 False"]
