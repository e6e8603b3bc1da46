"""Closed-form reference results for the 1/r relativistic Coulomb problem.

The 1/r Dirac-Coulomb problem is exactly solvable in every spatial dimension
once all dimensional dependence is absorbed into K = +-(2l + D - 1)/2:

    E/M = [1 + xi^2 / (n_r + gamma)^2]^(-1/2),   gamma = sqrt(K^2 - xi^2).

For the nodeless ground level (n_r = 0) the radial function collapses to
rho^gamma exp(-rho/2): the confluent hypergeometric factor truncates to 1.
These closed forms are the oracle the shooting solver is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import coupling_xi
from .core import Ansatz, PhysicalConfig, discrete_l2_norm, k_value
from .errors import SupercriticalCoupling, UnsupportedCase


@dataclass(frozen=True)
class AnalyticLevel:
    """One closed-form level: radial quantum number, E/M, and indicial exponent."""

    n_r: int
    energy_ratio: float
    gamma_exp: float


def analytic_energy(config: PhysicalConfig, n_r: int = 0, xi: float | None = None) -> AnalyticLevel:
    """Closed-form E/M of the 1/r problem for radial quantum number n_r.

    Parameters
    ----------
    config : PhysicalConfig
        Must use Ansatz.ONE_OVER_R (the 1/r^(D-2) problem has no closed form).
    n_r : int
        Radial quantum number, >= 0. n_r = 0 is the nodeless ground level.
    xi : float, optional
        Coupling override for limit checks; defaults to the configured value.

    Raises
    ------
    SupercriticalCoupling
        If |K| <= xi (the indicial exponent turns imaginary).
    UnsupportedCase
        For the 1/r^(D-2) potential.
    """
    if config.ansatz is not Ansatz.ONE_OVER_R:
        raise UnsupportedCase("closed-form energies exist only for the 1/r potential")
    if n_r < 0:
        raise ValueError(f"n_r must be >= 0, got {n_r}")
    if xi is None:
        xi = coupling_xi(config)
    kval = k_value(config)
    gamma2 = kval * kval - xi * xi
    if gamma2 <= 0.0:
        raise SupercriticalCoupling(f"|K| = {abs(kval)} <= xi = {xi}")
    gamma = math.sqrt(gamma2)
    ratio = 1.0 / math.sqrt(1.0 + (xi / (n_r + gamma)) ** 2)
    return AnalyticLevel(n_r=n_r, energy_ratio=ratio, gamma_exp=gamma)


def analytic_ground_wavefunction_d3(rho_nodes, config: PhysicalConfig) -> np.ndarray:
    """Analytic three-dimensional ground-state phi_+ on the given uniform nodes.

    Returns rho^gamma exp(-rho/2) normalized to unit discrete L2 norm
    (step * sum of squares convention, matching the solver's normalization).
    """
    if config.dimension != 3 or config.ell != 0:
        raise UnsupportedCase("closed-form wavefunction available only for D = 3, l = 0")
    xi = coupling_xi(config)
    kval = abs(k_value(config))
    gamma2 = kval * kval - xi * xi
    if gamma2 <= 0.0:
        raise SupercriticalCoupling(f"|K| = {kval} <= xi = {xi}")
    gamma = math.sqrt(gamma2)
    rho = np.asarray(rho_nodes, dtype=float)
    if rho.ndim != 1 or rho.size < 2:
        raise ValueError("rho_nodes must be a 1-d array with at least two nodes")
    steps = np.diff(rho)
    if np.any(rho <= 0.0) or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("rho_nodes must be positive and uniformly spaced")
    phi = rho**gamma * np.exp(-rho / 2.0)
    return phi / discrete_l2_norm(phi, float(steps[0]))
