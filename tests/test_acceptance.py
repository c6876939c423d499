"""Acceptance gate: fourteen numbered criteria, one pass/fail line each.

Each criterion is a separate test so the verbose run shows a line per
criterion; in addition every test records a single summary line with the
measured numbers, replayed as a scoreboard in the terminal summary (see
conftest) so it survives output capture and lands in any teed log.
"""

import math
import subprocess
import sys
import time

import numpy as np
from scipy.linalg import expm

from truncosc.coherent import (
    Family,
    build_cs,
    displacement_norm_partial_sums,
    energy_expectation,
    eigen_residual,
    identity_resolution_check,
    iso_measure,
    lowering_measure_corrected,
    lowering_measure_reference,
)
from truncosc.entangle import (
    BeamSplitterSetting,
    TwoModeState,
    beamsplitter_apply,
    beamsplitter_block,
    beamsplitter_block_bch,
    entropy_scan,
    halfline_overlap,
)
from truncosc.fock import Basis, level_energy, rows
from truncosc.numerics import gauss_halfline
from truncosc.observables import (
    ObservableKind,
    build_table,
    discrepancy_report,
    matrix_element_closed,
    matrix_element_quadrature,
    uncertainty_scan,
)
from truncosc.susy import (
    NEW_ENERGIES,
    Q4_SEEDS,
    potential,
    susy_ladder_action,
    wronskian_potential,
)


def test_criterion_01_lowering_norm_constant(criterion):
    start = time.monotonic()
    worst = 0.0
    for r in (0.1, 1.0, 2.0):
        cs = build_cs(Family.LOWERING, r)
        closed = math.sqrt(r / math.sinh(r))
        worst = max(worst, abs(cs.norm_constant - closed) / closed)
    elapsed = time.monotonic() - start
    criterion(1, worst < 1e-10 and elapsed < 1.0,
          f"lowering norm constant: max rel dev {worst:.2e} "
          f"(limit 1e-10), {elapsed:.2f}s (limit 1s)")


def test_criterion_02_displacement_norm_and_divergence(criterion):
    worst = 0.0
    for r in (0.1, 0.3, 0.45):
        cs = build_cs(Family.DISPLACEMENT, r, truncation=320)
        closed = (1.0 - 4.0 * r * r) ** 0.75
        worst = max(worst, abs(cs.norm_constant - closed) / closed)
    tail = displacement_norm_partial_sums(0.6, n_terms=80)[-1]
    criterion(2, worst < 1e-8 and tail > 1e6,
          f"displacement norm constant: max rel dev {worst:.2e} "
          f"(limit 1e-8); partial sums at |z|=0.6 reach {tail:.2e} (>1e6)")


def test_criterion_03_mean_energy_closed_form(criterion):
    worst = 0.0
    for r in (0.5, 1.0, 1.5, 2.0, 3.0):
        cs = build_cs(Family.LOWERING, r, truncation=60)
        closed = 0.5 + r / math.tanh(r)
        worst = max(worst, abs(energy_expectation(cs) - closed) / closed)
    criterion(3, worst < 1e-8,
          f"mean energy vs 1/2 + |z| coth |z| over 60 terms: "
          f"max rel dev {worst:.2e} (limit 1e-8)")


def test_criterion_04_lowering_eigenrelation(criterion, rng):
    worst = 0.0
    labels = [0.3, 1.0, 2.0, 2.0j, -1.4 + 1.4j]
    labels += [complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
               for _ in range(5)]
    for z in labels:
        cs = build_cs(Family.LOWERING, z, truncation=64)
        worst = max(worst, eigen_residual(cs))
    criterion(4, worst < 1e-10,
          f"eigenrelation residual over 10 labels with |z| <= 2: "
          f"max {worst:.2e} (limit 1e-10)")


def test_criterion_05_resolutions_of_identity(criterion):
    dev_iso = identity_resolution_check(Family.SUSY_ISO, iso_measure, n_max=10,
                                        r_max=8.0, truncation=320)
    dev_corrected = identity_resolution_check(
        Family.LOWERING, lowering_measure_corrected,
        n_max=10, r_max=60.0, truncation=128)
    dev_reference = identity_resolution_check(
        Family.LOWERING, lowering_measure_reference,
        n_max=10, r_max=100.0, truncation=192)
    ok = dev_iso < 1e-6 and dev_corrected < 1e-6 and dev_reference > 1.0
    criterion(5, ok,
          f"flat 2/pi measure dev {dev_iso:.2e}, corrected lowering measure "
          f"dev {dev_corrected:.2e} (both limit 1e-6); reference lowering "
          f"measure REPORTED dev {dev_reference:.4g} (expected nonzero)")


def test_criterion_06_matrix_elements(criterion):
    worst = 0.0
    for kind in (ObservableKind.X, ObservableKind.P):
        closed = np.array([[matrix_element_closed(kind, n, m) for m in range(9)]
                           for n in range(9)])
        quad = build_table(kind, 8).entries
        worst = max(worst, float(np.max(np.abs(closed - quad))))
    spots = (
        abs(matrix_element_quadrature(ObservableKind.X, 0, 0)
            - 2.0 / math.sqrt(math.pi)),
        abs(matrix_element_quadrature(ObservableKind.X2, 0, 0) - 1.5),
        abs(matrix_element_quadrature(ObservableKind.P2, 0, 0) - 1.5),
        max(abs(matrix_element_quadrature(ObservableKind.P, n, n))
            for n in range(9)),
    )
    reported = discrepancy_report(n_max=8, tol=1e-8)
    ok = worst < 1e-8 and max(spots) < 1e-8
    criterion(6, ok,
          f"X/P closed vs quadrature max dev {worst:.2e} (limit 1e-8), "
          f"spot values dev {max(spots):.2e}; {len(reported)} second-moment "
          f"off-pattern entries REPORTED (not failed)")


def test_criterion_07_uncertainty_products(criterion):
    start = time.monotonic()
    zs = np.linspace(0.1, 5.0, 40)
    recs = uncertainty_scan(Family.LOWERING, zs, truncation=64)
    floor = min(r.product for r in recs)
    at5 = recs[-1].product
    crossing = uncertainty_scan(Family.LIN_LOWERING, [1.0])[0]
    gap = abs(crossing.sigma_x - crossing.sigma_p)
    elapsed = time.monotonic() - start
    ok = (floor >= 0.5 - 5e-3 and abs(at5 - 0.5) < 0.05
          and gap < 0.02 and elapsed < 120.0)
    criterion(7, ok,
          f"uncertainty floor {floor:.6f} (>= 0.495), |product-0.5| at "
          f"|z|=5 is {abs(at5 - 0.5):.2e} (< 0.05), linearised crossing "
          f"gap {gap:.4f} (< 0.02), {elapsed:.1f}s (limit 120s)")


def test_criterion_08_wronskian_potential(criterion):
    grid = np.linspace(0.1, 6.0, 241)
    dev = float(np.max(np.abs(wronskian_potential(Q4_SEEDS, grid)
                              - potential(grid))))
    criterion(8, dev < 1e-6,
          f"fourth-order Wronskian potential vs frozen rational form: "
          f"max abs dev {dev:.2e} on [0.1, 6] (limit 1e-6)")


def test_criterion_09_partner_eigenfunctions(criterion):
    grid = np.linspace(0.1, 6.0, 241)
    v = potential(grid)
    worst = 0.0
    for j, energy in enumerate(NEW_ENERGIES):
        phi, _, phi2 = rows(Basis.SUSY_NEW, j + 1, grid, 2, weighted=False)[:, j]
        worst = max(worst, float(np.max(np.abs(
            -0.5 * phi2 + v * phi - energy * phi))))
    for n in range(6):
        phi, _, phi2 = rows(Basis.SUSY_ISO, n + 1, grid, 2, weighted=False)[:, n]
        worst = max(worst, float(np.max(np.abs(
            -0.5 * phi2 + v * phi - (2 * n + 1.5) * phi))))
    rule = gauss_halfline(degree=120)
    vals = [rows(Basis.SUSY_NEW, j + 1, rule.nodes)[0, j] for j in (0, 1)]
    vals += [rows(Basis.SUSY_ISO, n + 1, rule.nodes)[0, n]
             for n in range(6)]
    vals = np.array(vals)
    gram_dev = float(np.max(np.abs((vals * rule.weights) @ vals.T - np.eye(8))))
    ok = worst < 1e-6 and gram_dev < 1e-8
    criterion(9, ok,
          f"eigen residual sup {worst:.2e} (limit 1e-6) for levels "
          f"-9/2, -5/2 and the first six isospectral levels; Gram dev "
          f"{gram_dev:.2e} (limit 1e-8)")


def test_criterion_10_ladder_algebra(criterion):
    # the squared linearised step onto level u is E_u - 3/2
    comm_exact = all((level_energy(n + 1) - 1.5) - (level_energy(n) - 1.5) == 2.0
                     for n in range(21))
    coeff, _ = susy_ladder_action(Basis.SUSY_ISO, "lower",
                                  1, operator="full")
    six_dev = abs(coeff - math.sqrt(8640.0))
    worst = 0.0
    for r in (0.3, 0.8, 1.5, 2.0):
        cs = build_cs(Family.SUSY_ISO, r, truncation=64)
        closed = 1.5 + 4.0 * r * r
        worst = max(worst, abs(energy_expectation(cs) - closed) / closed)
    ok = comm_exact and six_dev < 1e-10 and worst < 1e-8
    criterion(10, ok,
          f"linearised commutator exactly 2 on n <= 20: {comm_exact}; "
          f"six-factor coefficient dev {six_dev:.2e} from sqrt(8640); "
          f"mean energy vs 3/2 + 4|z|^2 max rel dev {worst:.2e} (limit 1e-8)")


def test_criterion_11_beamsplitter_blocks(criterion):
    def su2_generator(total, setting):
        n = total + 1
        g = np.zeros((n, n), dtype=complex)
        for k in range(total):
            step = math.sqrt((k + 1) * (total - k))
            g[k + 1, k] = setting.tau * step
            g[k, k + 1] = -np.conj(setting.tau) * step
        return g

    worst = 0.0
    for theta, phi in ((math.pi / 2, 0.0), (1.0, 0.0), (0.7, 1.1)):
        setting = BeamSplitterSetting(theta, phi)
        for total in range(11):
            oracle = expm(su2_generator(total, setting))
            for block in (beamsplitter_block(total, theta, phi),
                          beamsplitter_block_bch(total, theta, phi)):
                worst = max(worst, float(np.max(np.abs(block - oracle))))
    amp = np.zeros((4, 4), dtype=complex)
    amp[1, 1] = 1.0
    out = beamsplitter_apply(TwoModeState(amp),
                             BeamSplitterSetting(math.pi / 2, 0.0))
    hom = abs(out.amplitudes[1, 1])
    ok = worst < 1e-8 and hom < 1e-12
    criterion(11, ok,
          f"both block pipelines vs matrix-exponential oracle, totals <= 10: "
          f"max amplitude dev {worst:.2e} (limit 1e-8); |1,1> output after a "
          f"balanced splitter {hom:.2e} (limit 1e-12)")


def test_criterion_12_halfline_overlaps(criterion):
    worst = 0.0
    pairs = 0
    for a in range(21):
        for b in range(21 - a):
            if (a + b) % 2 == 0 and a + b > 0:
                continue  # Gamma pole: closed form undefined
            closed = halfline_overlap(a, b, method="closed")
            quad = halfline_overlap(a, b, method="quadrature")
            scale = max(1.0, abs(quad))
            worst = max(worst, abs(closed - quad) / scale)
            pairs += 1
    spots = (
        abs(halfline_overlap(0, 1) - 1.0),
        abs(halfline_overlap(1, 1) - math.sqrt(math.pi)),
        abs(halfline_overlap(0, 0) - math.sqrt(math.pi) / 2.0),
    )
    ok = worst < 1e-10 and max(spots) < 1e-12
    criterion(12, ok,
          f"closed vs quadrature overlaps on {pairs} regular pairs with "
          f"a+b <= 20: max dev {worst:.2e} (limit 1e-10); spot-value dev "
          f"{max(spots):.2e}")


def test_criterion_13_entropy_properties(criterion):
    start = time.monotonic()
    zs = [0.0, 0.5, 1.0, 1.5, 2.0]
    trunc = entropy_scan(Family.LOWERING, zs, cutoff=64, n_terms=24)
    new = entropy_scan(Family.SUSY_NEW, zs, cutoff=80)
    theta0 = entropy_scan(Family.LOWERING, [0.7],
                          setting=BeamSplitterSetting(0.0, 0.0),
                          cutoff=32, n_terms=12)[0]
    every = trunc + new + [theta0]
    in_range = all(0.0 <= r.entropy < 1.0 for r in every)
    converged = all(r.converged for r in every)
    flatness = max(r.entropy for r in trunc) - min(r.entropy for r in trunc)
    band = max(abs(r.entropy - 0.5) for r in new)
    elapsed = time.monotonic() - start
    ok = (in_range and converged and theta0.entropy < 1e-8
          and flatness < 0.15 and band < 0.2 and elapsed < 600.0)
    criterion(13, ok,
          f"S in [0,1) and convergence-stable at 1.5x cutoff everywhere: "
          f"{in_range and converged}; S(theta=0) = {theta0.entropy:.1e} "
          f"(< 1e-8); balanced-splitter flatness {flatness:.2e} over "
          f"|z| <= 2 (< 0.15); finite-tower band max|S-0.5| = {band:.4f} "
          f"(< 0.2); {elapsed:.1f}s (limit 600s)")


def test_criterion_14_byte_identical_csv(criterion, tmp_path, cli_env):
    args = [sys.executable, "-m", "truncosc", "--command", "uncertainty",
            "--family", "lowering", "--zmin", "0.2", "--zmax", "1.2",
            "--steps", "4"]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    r1 = subprocess.run(args + ["--out", str(out1)], capture_output=True,
                        cwd=tmp_path, env=cli_env, timeout=600)
    r2 = subprocess.run(args + ["--out", str(out2)], capture_output=True,
                        cwd=tmp_path, env=cli_env, timeout=600)
    identical = (r1.returncode == 0 and r2.returncode == 0
                 and out1.read_bytes() == out2.read_bytes())
    criterion(14, identical,
          f"two runs of an identical configuration: exit codes "
          f"{r1.returncode}/{r2.returncode}, byte-identical output "
          f"{out1.read_bytes() == out2.read_bytes()}")
