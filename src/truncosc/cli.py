"""Command-line front end: CSV data for every plot plus a validation suite.

Four commands, selected with --command:

  density      probability densities |<x|z>|^2 on a fixed grid x in (0, 12]
  uncertainty  sigma_x, sigma_p and their product along a |z| grid
  entropy      beam-splitter linear entropy along a |z| grid
  validate     run the cross-module invariant suite and report per check

Every CSV starts with one comment line recording the config hash, the
basis size, and the tool version, followed by a header row; identical
configs rerun to byte-identical files (fixed grids, fixed float
formatting, no timestamps).  Scan points are mutually independent and
are assembled in index order, so the output does not depend on
evaluation order; shared tables (Gram matrices, partner-tower
projections, operator tables) are built once and reused immutably.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical failure.  All progress and diagnostics go to standard
error; files carry the numbers.

The --seed-config flag points to a text file with one "epsilon nu" pair
per line ('#' comments allowed; nu may be 'inf' or '-inf' for the pure
odd branch).  validate then also builds that custom factorization-energy
grid, checks each seed against an independent series oracle, and checks
model admissibility (ordering, bounds, nonsingular Wronskian).
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .coherent import (
    DISPLACEMENT_RADIUS,
    WINDOWS,
    Family,
    build_cs,
    displacement_norm_partial_sums,
    eigen_residual,
    energy_expectation,
    identity_resolution_check,
    iso_measure,
    lowering_measure_corrected,
    lowering_measure_reference,
)
from .entangle import (
    BeamSplitterSetting,
    beamsplitter_block,
    beamsplitter_block_bch,
    beamsplitter_block_oracle,
    entropy_scan,
    halfline_overlap,
    halfline_overlap_quadrature,
    min_cutoff,
    scan_bytes,
)
from .errors import DivergenceError, SingularWronskian, TruncOscError
from .fock import Basis, level_energy, rows as eigen_rows
from .numerics import gauss_halfline
from .observables import discrepancy_report, uncertainty_scan
from . import susy as _susy

__all__ = [
    "RunConfig",
    "ConfigError",
    "build_parser",
    "parse_seed_config",
    "cmd_density",
    "cmd_uncertainty",
    "cmd_entropy",
    "cmd_validate",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_DENSITY_GRID_POINTS = 600
_DENSITY_X_MAX = 12.0

# Memory a run may hold in all; entropy at basis 80, the largest run in the
# benchmark, peaks at about 6.9 MB (tracemalloc, a partner tower at 9 points)
# in its splitter sweep.
_MEMORY_BUDGET = 1 << 30

# Bytes a run keeps per |z| point besides its state (record, CSV row and text;
# a 600-cell column for density): the growth of the tracemalloc peak between
# --steps 600 and 1200 (density, basis 64) or 20000 and 60000 (the others, scan
# stubbed so that its transients do not hide the growth), rounded up.
_POINT_BYTES = {"density": 57_000, "uncertainty": 600, "entropy": 600}

# Bytes per basis level at a run's peak besides the states density keeps: the
# tracemalloc peak over the basis at 10^4 (density) and 10^5 (uncertainty),
# rounded up.  Density holds the susy-iso row table, its complex copy in the
# profile product and the row engine's transients (41.9 kB); uncertainty
# builds a state while the previous one is held (81 bytes).
_LEVEL_BYTES = {"density": 42_000, "uncertainty": 88}

# Bytes density, uncertainty and validate may hold whatever the basis; the
# largest such peak, 13 MB, builds the susy-iso uncertainty tables.  Validate
# reads no basis, so this is its whole bound (its traced peak is 4.7 MB).
_FIXED_BYTES = 16 << 20

# The --model values: the truncated oscillator's, then the partner towers'
_MODELS = ("TRUNC", "SUSY_Q4")


class ConfigError(Exception):
    """A run configuration that violates the CLI contract."""


def _largest_array_bytes(command: str, basis: int, steps: int) -> int:
    """Upper bound on the bytes a run holds at once, from the layout alone:
    the per-point records and CSV text; for entropy, `entangle.scan_bytes`;
    otherwise the fixed peak above and, where states span the basis, the
    per-level peaks and the states density keeps (24 bytes a level)."""
    total = _POINT_BYTES.get(command, 0) * steps
    if command == "entropy":
        return total + scan_bytes(basis, steps)
    kept = 24 * steps if command == "density" else 0
    return total + _FIXED_BYTES + (_LEVEL_BYTES.get(command, 0) + kept) * basis


def _limit(command: str, flag: str) -> int:
    """Largest --basis or --steps within the memory budget, the other at its default."""
    lo, hi = 8, _MEMORY_BUDGET
    while lo < hi:
        mid = (lo + hi + 1) // 2
        basis, steps = ((mid, RunConfig.z_steps) if flag == "--basis"
                        else (RunConfig.basis_size, mid))
        lo, hi = ((mid, hi) if _largest_array_bytes(command, basis, steps)
                  <= _MEMORY_BUDGET else (lo, mid - 1))
    return lo


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str = "lowering"
    model: str = _MODELS[0]
    z_min: float = 0.0
    z_max: float = 2.0
    z_steps: int = 9
    basis_size: int = 64
    theta: float = math.pi / 2.0
    phi: float = 0.0
    output_path: Optional[str] = None
    seed_config: Optional[str] = None

    def validate(self) -> None:
        if self.command not in _HANDLERS:
            raise ConfigError(f"unknown command {self.command!r}")
        for flag, value in (("--zmin", self.z_min), ("--zmax", self.z_max),
                            ("--theta", self.theta), ("--phi", self.phi)):
            if not math.isfinite(value):
                raise ConfigError(f"{flag} must be finite, got {value}")
        if self.family not in tuple(f.value for f in Family):
            raise ConfigError(f"unknown family {self.family!r}")
        if self.z_steps < 2:
            raise ConfigError("--steps must be at least 2")
        if self.basis_size < 8:
            raise ConfigError("--basis must be at least 8")
        if self.command == "entropy":
            least, reason = min_cutoff(self.family)
            if self.basis_size < least:
                raise ConfigError(f"entropy for family {self.family} {reason} and "
                                  f"needs basis_size >= {least}")
        if not (self.z_min <= self.z_max):
            raise ConfigError("--zmin must not exceed --zmax")
        if self.z_min < 0.0:
            raise ConfigError("--zmin must be non-negative")
        if (self.family == Family.DISPLACEMENT.value and self.command != "validate"
                and self.z_max >= DISPLACEMENT_RADIUS):
            raise ConfigError(f"family displacement exists for |z| < 1/2 only (the "
                              f"radius of its norm series); got --zmax {self.z_max:g}")
        if not (0.0 <= self.theta < math.pi):
            raise ConfigError("--theta must lie in [0, pi)")
        if self.command != "validate" and self.output_path is None:
            raise ConfigError(f"--out is required for --command {self.command}")
        if self.output_path is not None and not Path(self.output_path).parent.is_dir():
            raise ConfigError(f"--out directory {Path(self.output_path).parent} does not exist")
        if self.output_path is not None and Path(self.output_path).is_dir():
            raise ConfigError(f"cannot write {self.output_path}: it is a directory")
        model = _MODELS[WINDOWS[Family(self.family)].basis != Basis.TRUNCATED]
        if self.model != model:
            raise ConfigError(f"family {self.family} requires --model {model}")
        size = _largest_array_bytes(self.command, self.basis_size, self.z_steps)
        if size > _MEMORY_BUDGET:
            raise ConfigError(f"{self.command} would hold {size >> 20} MiB, above the "
                              f"{_MEMORY_BUDGET >> 20} MiB budget (see --help for the maxima)")

    def config_hash(self) -> str:
        """Hash of every input: the flags and the bytes of the seed config."""
        seed = ("" if self.seed_config is None else
                hashlib.sha256(Path(self.seed_config).read_bytes()).hexdigest())
        payload = "|".join([
            self.command, self.family, self.model,
            f"{self.z_min:.17g}", f"{self.z_max:.17g}", str(self.z_steps),
            str(self.basis_size), f"{self.theta:.17g}", f"{self.phi:.17g}", seed,
        ])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @property
    def z_grid(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.z_steps)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; options left out fall back to the RunConfig defaults."""
    parser = argparse.ArgumentParser(
        prog="truncosc",
        description="Half-line oscillator coherent states: CSV data and validation.",
        argument_default=argparse.SUPPRESS,
    )
    entropy_min = {f.value: min_cutoff(f)[0] for f in Family}
    low = min(entropy_min.values())
    higher = ", ".join(f">= {n} for {f}" for f, n in entropy_min.items() if n > low)
    parser.add_argument("--command", required=True, choices=list(_HANDLERS))
    parser.add_argument("--family", choices=[f.value for f in Family],
                        help=f"coherent-state family (susy-* require --model {_MODELS[1]})")
    parser.add_argument("--model", choices=_MODELS)
    parser.add_argument("--zmin", type=float, dest="z_min")
    parser.add_argument("--zmax", type=float, dest="z_max")
    parser.add_argument("--steps", type=int, dest="z_steps",
                        help=f"|z| grid points (default {RunConfig.z_steps}, at least "
                             f"2; at most {_limit('density', '--steps')} for density, "
                             f"{_limit('uncertainty', '--steps')} for uncertainty "
                             f"and {_limit('entropy', '--steps')} for entropy)")
    parser.add_argument("--basis", type=int, dest="basis_size",
                        help=f"basis size / two-mode level cutoff (default "
                             f"{RunConfig.basis_size}, at least 8; entropy needs "
                             f">= {low}, or {higher}; at most "
                             f"{_limit('entropy', '--basis')} for entropy, "
                             f"{_limit('density', '--basis')} for density and "
                             f"{_limit('uncertainty', '--basis')} for uncertainty, so "
                             f"that a run holds at most {_MEMORY_BUDGET >> 20} MiB; "
                             f"validate runs a fixed suite and reads no basis)")
    parser.add_argument("--theta", type=float)
    parser.add_argument("--phi", type=float)
    parser.add_argument("--out", dest="output_path")
    parser.add_argument("--seed-config", dest="seed_config",
                        help="text file of 'epsilon nu' pairs for a custom "
                             "factorization-energy grid (checked by validate; "
                             "every run parses it and hashes its bytes)")
    return parser


# ----------------------------------------------------------------------------
# deterministic CSV output
# ----------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.12g}"


def _write_csv(config: RunConfig, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    lines = [f"# config={config.config_hash()} basis={config.basis_size} "
             f"version={__version__}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {config.output_path}: {exc}") from exc


# ----------------------------------------------------------------------------
# density
# ----------------------------------------------------------------------------

def _density_grid() -> np.ndarray:
    step = _DENSITY_X_MAX / _DENSITY_GRID_POINTS
    return np.linspace(step, _DENSITY_X_MAX, _DENSITY_GRID_POINTS)


def cmd_density(config: RunConfig) -> int:
    x = _density_grid()
    zs = config.z_grid
    states = [build_cs(config.family, float(z), truncation=config.basis_size) for z in zs]
    n_levels = max(cs.amplitudes.size for cs in states)
    table = eigen_rows(states[0].basis, n_levels, x, weighted=False)[0]
    profiles = [np.abs(cs.amplitudes @ table[:cs.amplitudes.size]) ** 2 for cs in states]
    header = ["x"] + [f"P[z={_fmt(float(z))}]" for z in zs]
    rows = [[x[i]] + [p[i] for p in profiles] for i in range(x.size)]
    _write_csv(config, header, rows)
    print(f"density: wrote {x.size} grid rows x {len(zs)} profiles "
          f"to {config.output_path}", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------------
# uncertainty
# ----------------------------------------------------------------------------

def cmd_uncertainty(config: RunConfig) -> int:
    records = uncertainty_scan(config.family, [float(z) for z in config.z_grid],
                               truncation=config.basis_size)
    rows = [[r.z_modulus, r.sigma_x, r.sigma_p, r.product] for r in records]
    _write_csv(config, ["z_abs", "sigma_x", "sigma_p", "product"], rows)
    print(f"uncertainty: wrote {len(rows)} scan rows to {config.output_path}",
          file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------------
# entropy
# ----------------------------------------------------------------------------

def cmd_entropy(config: RunConfig) -> int:
    setting = BeamSplitterSetting(config.theta, config.phi)
    records = entropy_scan(Family(config.family), config.z_grid, setting=setting,
                           cutoff=config.basis_size)
    rows = [[r.z_abs, setting.theta, setting.phi, r.entropy, r.converged, r.cutoff]
            for r in records]
    _write_csv(config, ["z_abs", "theta", "phi", "S", "S_converged", "cutoff"], rows)
    for r in records:
        if not r.converged:
            print(f"warning: unconverged row at |z| = {_fmt(r.z_abs)}: S = "
                  f"{_fmt(r.entropy)} at cutoff {r.cutoff}, entropy_refined = "
                  f"{_fmt(r.entropy_refined)}", file=sys.stderr)
    print(f"entropy: wrote {len(rows)} scan rows to {config.output_path}",
          file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------------
# validation suite
# ----------------------------------------------------------------------------

def _check_lowering_norm():
    worst = 0.0
    for r in (0.1, 1.0, 2.0):
        cs = build_cs(Family.LOWERING, r, truncation=64)
        closed = math.sqrt(r / math.sinh(r))
        worst = max(worst, abs(cs.norm_constant - closed) / closed)
    status = "PASS" if worst < 1e-10 else "FAIL"
    return status, f"max relative deviation {worst:.3e} (tol 1e-10)"


def _check_displacement_norm():
    worst = 0.0
    for r in (0.1, 0.3, 0.45):
        # the norm series converges slowly near the 1/2 radius, so sum it
        # directly instead of building a truncated state
        total = float(displacement_norm_partial_sums(r, n_terms=400)[-1])
        closed = (1.0 - 4.0 * r * r) ** 0.75
        worst = max(worst, abs(total ** -0.5 - closed) / closed)
    sums = displacement_norm_partial_sums(0.6, n_terms=80)
    diverges = float(np.max(sums)) > 1e6
    ok = worst < 1e-8 and diverges
    return ("PASS" if ok else "FAIL",
            f"max relative deviation {worst:.3e} (tol 1e-8); "
            f"divergent partial sum at 0.6 reaches {float(np.max(sums)):.3e}")


def _check_mean_energy():
    worst = 0.0
    for r in (0.3, 0.8, 1.5, 2.2, 3.0):
        cs = build_cs(Family.LOWERING, r, truncation=60)
        closed = 0.5 + r / math.tanh(r)
        worst = max(worst, abs(energy_expectation(cs) - closed) / closed)
    return ("PASS" if worst < 1e-8 else "FAIL",
            f"max relative deviation {worst:.3e} (tol 1e-8)")


def _check_eigenrelation():
    worst = 0.0
    for z in (0.5, 1.0 + 0.5j, 2.0j, 2.0):
        cs = build_cs(Family.LOWERING, z, truncation=64)
        worst = max(worst, eigen_residual(cs))
    return ("PASS" if worst < 1e-10 else "FAIL",
            f"max residual {worst:.3e} (tol 1e-10)")


def _check_identity_corrected():
    dev = identity_resolution_check(Family.LOWERING, lowering_measure_corrected,
                                    n_max=6, r_max=60.0, truncation=128)
    return ("PASS" if dev < 1e-6 else "FAIL",
            f"max moment deviation {dev:.3e} (tol 1e-6)")


def _check_identity_reference():
    dev = identity_resolution_check(Family.LOWERING, lowering_measure_reference,
                                    n_max=6, r_max=60.0, truncation=128)
    return "REPORT", (f"reference candidate density misses the moment test "
                      f"by {dev:.4g} (expected discrepancy, not a failure)")


def _check_matrix_elements():
    worst = max((r["abs_diff"] for r in discrepancy_report(tol=0.0)
                 if r["kind"] in ("X", "P")), default=0.0)
    return ("PASS" if worst < 1e-8 else "FAIL",
            f"X and P closed vs quadrature, max |diff| {worst:.3e} (tol 1e-8)")


def _check_x2p2_offdiag():
    rows = discrepancy_report(tol=1e-8)
    if not rows:
        return "REPORT", "no closed-form/quadrature mismatches above 1e-8"
    worst = max(r["abs_diff"] for r in rows)
    kinds = sorted({r["kind"] for r in rows})
    return "REPORT", (f"{len(rows)} off-diagonal closed-form mismatches in "
                      f"{'/'.join(kinds)}, max |diff| {worst:.3e} "
                      f"(expected discrepancy, quadrature is authoritative)")


def _check_uncertainty_floor():
    records = uncertainty_scan(Family.LOWERING, [0.5, 2.0, 5.0], truncation=64)
    floor_ok = all(r.product >= 0.5 - 5e-3 for r in records)
    tail_ok = abs(records[-1].product - 0.5) < 0.05
    return ("PASS" if floor_ok and tail_ok else "FAIL",
            f"products {[f'{r.product:.4f}' for r in records]}, floor 0.5-5e-3, "
            f"tail |p-0.5| < 0.05")


def _check_lin_crossing():
    records = uncertainty_scan(Family.LIN_LOWERING, [1.0], truncation=64)
    gap = abs(records[0].sigma_x - records[0].sigma_p)
    return ("PASS" if gap < 0.02 else "FAIL",
            f"|sigma_x - sigma_p| = {gap:.4f} at |z| = 1 (tol 0.02)")


def _check_susy_potential():
    grid = np.linspace(0.1, 6.0, 400)
    dev = float(np.max(np.abs(_susy.wronskian_potential(_susy.Q4_SEEDS, grid)
                              - _susy.potential(grid))))
    return ("PASS" if dev < 1e-6 else "FAIL",
            f"Wronskian-built vs closed-form potential, max |diff| {dev:.3e} "
            f"(tol 1e-6)")


def _check_susy_eigen():
    grid = np.linspace(0.1, 6.0, 300)
    v = _susy.potential(grid)
    worst = 0.0
    for basis, energies in ((Basis.SUSY_NEW, np.array(_susy.NEW_ENERGIES)),
                            (Basis.SUSY_ISO, level_energy(np.arange(6)))):
        phi, _, phi2 = eigen_rows(basis, energies.size, grid, order=2, weighted=False)
        worst = max(worst, float(np.max(np.abs(
            -0.5 * phi2 + v * phi - energies[:, None] * phi))))
    rule = gauss_halfline(degree=160)
    vals = np.vstack([eigen_rows(Basis.SUSY_NEW, 2, rule.nodes)[0],
                      eigen_rows(Basis.SUSY_ISO, 6, rule.nodes)[0]])
    gram = (vals * rule.weights) @ vals.T
    gram_dev = float(np.max(np.abs(gram - np.eye(8))))
    ok = worst < 1e-6 and gram_dev < 1e-8
    return ("PASS" if ok else "FAIL",
            f"max eigen-residual {worst:.3e} (tol 1e-6), "
            f"8-function Gram vs identity {gram_dev:.3e} (tol 1e-8)")


def _check_susy_ladder():
    # squared linearised steps E_u - 3/2 on levels u <= 21; [lower, raise]
    # on level n is their difference between u = n + 1 and u = n
    lin_sq = level_energy(np.arange(22)) - 1.5
    comm_dev = float(np.max(np.abs(np.diff(lin_sq) - 2.0)))
    full_e1 = _susy.susy_ladder_action(Basis.SUSY_ISO, "lower", 1, operator="full")[0]
    six_ok = full_e1 == math.sqrt(8640.0)
    h_dev = 0.0
    for r in (0.4, 1.1, 2.0):
        cs = build_cs(Family.SUSY_ISO, r, truncation=64)
        h_dev = max(h_dev, abs(energy_expectation(cs) - (1.5 + 4.0 * r * r)))
    ok = comm_dev == 0.0 and six_ok and h_dev < 1e-8
    return ("PASS" if ok else "FAIL",
            f"commutator deviation {comm_dev:.1e} (exact), six-factor on level 1 "
            f"{'exact' if six_ok else 'WRONG'}, mean-energy deviation {h_dev:.3e}")


def _check_susy_new_norm():
    worst = 0.0
    for r in (0.2, 0.35, 0.9):
        closed = _susy.new_norm_constant_closed(r)
        worst = max(worst, abs(closed - (1.0 - 6.0 * r * r)))
        cs = build_cs(Family.SUSY_NEW, r, truncation=8)
        direct = float(np.sum(np.abs(cs.amplitudes) ** 2))
        worst = max(worst, abs(direct - 1.0))
    return ("PASS" if worst < 1e-12 else "FAIL",
            f"signed closed sum vs 1 - 6|z|^2 and direct normalization, "
            f"max deviation {worst:.3e} (tol 1e-12)")


def _check_beamsplitter():
    worst = 0.0
    worst_bch = 0.0
    setting = BeamSplitterSetting(math.pi / 2.0, 0.0)
    for total in range(11):
        oracle = beamsplitter_block_oracle(total, setting)
        worst = max(worst, float(np.max(np.abs(beamsplitter_block(total, setting) - oracle))))
        worst_bch = max(worst_bch, float(np.max(np.abs(
            beamsplitter_block_bch(total, setting) - oracle))))
    # the Hong-Ou-Mandel null |<1,1|U|1,1>| of the spectral block
    hom = abs(beamsplitter_block(2, setting)[1, 1])
    ok = worst < 1e-8 and worst_bch < 1e-8 and hom < 1e-12
    return ("PASS" if ok else "FAIL",
            f"blocks vs exponential oracle {worst:.3e} (spectral) / "
            f"{worst_bch:.3e} (factorized), interference null {hom:.3e}")


def _check_overlaps():
    worst = 0.0
    for a in range(7):
        for b in range(7):
            if (a + b) % 2 == 0 and a + b > 0:
                continue  # a Gamma pole, where the closed form is the quadrature
            closed = halfline_overlap(a, b)
            quad = halfline_overlap_quadrature(a, b)
            worst = max(worst, abs(closed - quad))
    spots = (abs(halfline_overlap(0, 1) - 1.0),
             abs(halfline_overlap(1, 1) - math.sqrt(math.pi)),
             abs(halfline_overlap(0, 0) - math.sqrt(math.pi) / 2.0))
    ok = worst < 1e-10 and max(spots) < 1e-12
    return ("PASS" if ok else "FAIL",
            f"closed vs quadrature max |diff| {worst:.3e} (tol 1e-10), "
            f"spot values max |diff| {max(spots):.3e}")


def _check_entropy_theta0():
    records = entropy_scan(Family.LOWERING, [0.7],
                           setting=BeamSplitterSetting(0.0, 0.0),
                           cutoff=32, n_terms=12)
    s = records[0].entropy
    return ("PASS" if abs(s) < 1e-8 else "FAIL",
            f"S = {s:.3e} at theta = 0 (tol 1e-8)")


def _check_new_measure():
    dev = _susy.new_measure_check()
    return "REPORT", (f"radial kernel reproduces the required moments; the "
                      f"positivity defect of the printed density is {dev:.1f} "
                      f"(sign-alternating weights; expected discrepancy)")


def _check_iso_measure():
    dev = identity_resolution_check(Family.SUSY_ISO, iso_measure, n_max=6,
                                    r_max=8.0, truncation=320)
    return ("PASS" if dev < 1e-6 else "FAIL",
            f"flat-density moment deviation {dev:.3e} (tol 1e-6)")


def parse_seed_config(path: str) -> tuple:
    """Read 'epsilon nu' pairs: epsilon finite, nu also inf/-inf for the odd branch."""
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'epsilon nu', got {raw!r}")
                try:
                    eps = float(parts[0])
                    nu = float(parts[1])
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
                if math.isnan(eps) or math.isnan(nu):
                    raise ConfigError(f"{path}:{lineno}: NaN is not a value")
                if not math.isfinite(eps):
                    raise ConfigError(
                        f"{path}:{lineno}: epsilon must be finite, got {eps}")
                pairs.append((eps, nu))
    except (OSError, UnicodeDecodeError) as exc:  # a decode error is a ValueError
        raise ConfigError(f"cannot read seed config {path}: {exc}") from exc
    if not pairs:
        raise ConfigError(f"seed config {path} holds no seed lines")
    return tuple(pairs)


def _check_seed_config(path: str):
    pairs = parse_seed_config(path)
    eps = [p[0] for p in pairs]
    if len(pairs) % 2 != 0:
        return "FAIL", f"need an even number of seeds, got {len(pairs)}"
    if any(e2 <= e1 for e1, e2 in zip(eps, eps[1:])):
        return "FAIL", f"factorization energies must increase strictly: {eps}"
    if max(eps) >= 0.5:
        return "FAIL", (f"factorization energies must stay below the 1/2 "
                        f"threshold: max is {max(eps)}")
    grid = np.linspace(0.05, 8.0, 500)
    sample = np.linspace(0.1, 6.0, 60)
    seeds = []
    for e, nu in pairs:
        seed = _susy.SeedSolution(e, nu)
        try:
            u = seed(sample)
            u2 = seed.second_derivative_direct(sample)
        except DivergenceError as exc:
            return "FAIL", (f"seed (epsilon={e}, nu={nu}) misses its defining "
                            f"equation: {exc}")
        res = float(np.max(np.abs(-0.5 * u2 + (0.5 * sample ** 2 - e) * u)))
        scale = float(np.max(np.abs(u)))
        if not res <= 1e-8 * max(scale, 1.0):  # a NaN residual fails too
            return "FAIL", (f"seed (epsilon={e}, nu={nu}) misses its defining "
                            f"equation by {res:.3e}")
        seeds.append(seed)
    try:
        _susy.wronskian_potential(tuple(seeds), grid)
    except (SingularWronskian, ValueError) as exc:
        return "FAIL", f"seed grid gives a singular construction: {exc}"
    return "PASS", (f"{len(pairs)} seeds verified against the series oracle; "
                    f"Wronskian regular on (0, 8]")


_CHECKS = (
    ("lowering-norm-closed", _check_lowering_norm),
    ("displacement-norm-closed", _check_displacement_norm),
    ("mean-energy-closed", _check_mean_energy),
    ("lowering-eigenrelation", _check_eigenrelation),
    ("identity-resolution-corrected", _check_identity_corrected),
    ("identity-resolution-reference", _check_identity_reference),
    ("matrix-elements-x-p", _check_matrix_elements),
    ("matrix-elements-x2-p2-offdiag", _check_x2p2_offdiag),
    ("uncertainty-floor", _check_uncertainty_floor),
    ("linearised-crossing", _check_lin_crossing),
    ("susy-potential-wronskian", _check_susy_potential),
    ("susy-eigen-residuals", _check_susy_eigen),
    ("susy-ladder-coefficients", _check_susy_ladder),
    ("susy-new-norm-closed", _check_susy_new_norm),
    ("beamsplitter-blocks", _check_beamsplitter),
    ("halfline-overlaps", _check_overlaps),
    ("entropy-theta0", _check_entropy_theta0),
    ("new-measure-moments", _check_new_measure),
    ("iso-measure-identity", _check_iso_measure),
)


def cmd_validate(config: RunConfig) -> int:
    checks = list(_CHECKS)
    if config.seed_config is not None:
        checks.append(("seed-config-model",
                       lambda: _check_seed_config(config.seed_config)))
    results = []
    for name, check in checks:
        try:
            status, detail = check()
        except ConfigError:
            raise
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        results.append((name, status, detail))
    n_fail = sum(1 for _, status, _ in results if status == "FAIL")
    for name, status, detail in results:
        print(f"{status:7s} {name}: {detail}", file=sys.stderr)
    print(f"validate: {len(results)} checks, {n_fail} failures", file=sys.stderr)
    if config.output_path is not None:
        _write_csv(config, ["check", "status", "detail"],
                   [[name, status, '"' + detail.replace('"', '""') + '"']
                    for name, status, detail in results])
    return EXIT_VALIDATION if n_fail else EXIT_OK


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

_HANDLERS = {
    "density": cmd_density,
    "uncertainty": cmd_uncertainty,
    "entropy": cmd_entropy,
    "validate": cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        config.validate()
        if config.seed_config is not None:
            parse_seed_config(config.seed_config)  # surface unreadable seeds early
        return _HANDLERS[config.command](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TruncOscError, ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
