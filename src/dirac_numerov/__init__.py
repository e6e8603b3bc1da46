"""Relativistic hydrogen-like bound states in D spatial dimensions.

Numerical ground-state solver for the radial Dirac problem under two Coulomb
continuations (1/r and the Gauss-law 1/r^(D-2)), built on a fourth-order
three-term recurrence with match-point shooting, plus the closed-form 1/r
reference results used to validate it.
"""

from .analytic import AnalyticLevel, analytic_energy, analytic_ground_wavefunction_d3
from .coefficients import CoefficientSet, build_coefficients, coupling_xi
from .core import (
    Ansatz,
    EigenResult,
    ELECTRON_MASS_EV,
    FINE_STRUCTURE_CONSTANT,
    KSign,
    PhysicalConfig,
    RadialGrid,
    WaveSolution,
    dimensionless_state,
    discrete_l2_norm,
    k_value,
    reconstruct_fg,
)
from .manifest import RunManifest, TOOL_VERSION
from .numerov import Scheme, scheme_report
from .solver import SolverSettings, dimension_scan, eigenfunction, mismatch_scan, solve_ground_state

__version__ = TOOL_VERSION

__all__ = [
    "AnalyticLevel",
    "Ansatz",
    "CoefficientSet",
    "EigenResult",
    "ELECTRON_MASS_EV",
    "FINE_STRUCTURE_CONSTANT",
    "KSign",
    "PhysicalConfig",
    "RadialGrid",
    "RunManifest",
    "Scheme",
    "SolverSettings",
    "TOOL_VERSION",
    "WaveSolution",
    "analytic_energy",
    "analytic_ground_wavefunction_d3",
    "build_coefficients",
    "coupling_xi",
    "dimension_scan",
    "dimensionless_state",
    "discrete_l2_norm",
    "eigenfunction",
    "k_value",
    "mismatch_scan",
    "reconstruct_fg",
    "scheme_report",
    "solve_ground_state",
]
