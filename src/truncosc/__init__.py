"""Coherent states of the half-line (truncated) harmonic oscillator.

The oscillator confined to x > 0 by an infinite wall keeps exactly the
odd full-line levels; its number basis carries a quadratic ladder
algebra.  This package builds its coherent-state families (annihilation
eigenstates, displacement-operator states, and linearised variants),
their observables and uncertainty products, a fourth-order partner
Hamiltonian generated from four factorization-energy seeds (with an
infinite isospectral tower plus two newly created bound states and
coherent states on both), and a two-mode beam-splitter entanglement
pipeline over the half-line.  The `cli` module exposes everything as
deterministic CSV scans plus a validation suite.  Importing the package
sets one OpenBLAS thread for every OpenBLAS loaded after it.
"""
import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # small products: README, "Threads"
from .errors import (
    DivergenceError,
    NonConvergence,
    NotNormalizable,
    PoleError,
    SingularWronskian,
    TruncOscError,
    TruncationTooSmall,
)
from .fock import Basis, ladder_step_sq, level_energy
from .coherent import (
    CoherentState,
    Family,
    build_cs,
    eigen_residual,
    energy_expectation,
    evolve,
    identity_resolution_check,
)
from .observables import (
    MatrixElementTable,
    ObservableKind,
    UncertaintyRecord,
    build_table,
    expectation,
    matrix_element_closed,
    uncertainty_scan,
)
from .susy import (
    Q4_SEED_ASYMMETRY,
    Q4_SEED_ENERGIES,
    SeedSolution,
    susy_ladder_action,
    wronskian_potential,
)
from .entangle import (
    BeamSplitterSetting,
    EntropyRecord,
    GramMatrix,
    entropy_scan,
    halfline_overlap,
    linear_entropy,
    reduced_density,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "TruncOscError", "DivergenceError", "PoleError", "NonConvergence",
    "NotNormalizable", "TruncationTooSmall", "SingularWronskian",
    # number basis and states
    "Basis", "ladder_step_sq", "level_energy",
    "Family", "CoherentState", "build_cs", "eigen_residual",
    "energy_expectation", "evolve",
    "identity_resolution_check",
    # observables
    "ObservableKind", "MatrixElementTable", "UncertaintyRecord",
    "matrix_element_closed", "build_table", "expectation", "uncertainty_scan",
    # partner machinery
    "SeedSolution", "susy_ladder_action", "wronskian_potential",
    "Q4_SEED_ENERGIES", "Q4_SEED_ASYMMETRY",
    # entanglement
    "GramMatrix", "BeamSplitterSetting", "EntropyRecord",
    "halfline_overlap", "reduced_density", "linear_entropy", "entropy_scan",
]
