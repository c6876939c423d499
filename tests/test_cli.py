"""End-to-end command-line runs in a scratch directory.

Most runs go through truncosc.cli.main in process. One exit-code smoke
test starts `python -m truncosc` as a child to cover the entry point, and
the import-path guard at the end starts a fresh interpreter.
"""

import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from truncosc.cli import main


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
    res = run_cli(["--command", "uncertainty", "--family", "displacement",
                   "--zmin", "0.55", "--zmax", "0.6", "--steps", "2",
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 3
    assert "numerical failure" in res.stderr


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


# ----------------------------------------------------------------------------
# configuration errors
# ----------------------------------------------------------------------------

def test_rejects_degenerate_grids_and_missing_output(tmp_path, run_cli):
    res = run_cli(["--command", "entropy", "--steps", "1",
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2
    res = run_cli(["--command", "density"], tmp_path)
    assert res.returncode == 2
    res = run_cli(["--command", "uncertainty", "--zmin", "2", "--zmax", "1",
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2
    res = run_cli(["--command", "entropy", "--basis", "4",
                   "--out", str(tmp_path / "x.csv")], tmp_path)
    assert res.returncode == 2


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


def test_validate_skips_truncation_sensitive_checks_at_tiny_basis(tmp_path, run_cli):
    res = run_cli(["--command", "validate", "--basis", "8",
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "skipped" in res.stderr


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


def test_validate_rejects_unparsable_seed_config(tmp_path, run_cli):
    cfg = tmp_path / "seeds.txt"
    cfg.write_text("-5.5 banana\n")
    res = run_cli(["--command", "validate", "--seed-config", str(cfg),
                   "--out", str(tmp_path / "v.csv")], tmp_path)
    assert res.returncode == 2
    assert "configuration error" in res.stderr


# ----------------------------------------------------------------------------
# import path
# ----------------------------------------------------------------------------

def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path, cli_env):
    # only the radial identity checks need quad; they import it on first use
    probe = "import sys, truncosc.cli; print('scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=cli_env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
