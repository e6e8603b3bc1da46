"""Physical configuration, the scalars of a trial energy, grids, and result containers.

:func:`dimensionless_state` computes a trial energy's scalars once and returns
them as the one record :class:`~dirac_numerov.coefficients.CoefficientSet`.
Everything downstream works in units of the particle mass (M = 1, hbar = c = 1).
Electron-volt values appear only at the reporting boundary, where the binding
energy is multiplied by the electron rest energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import EtaOutOfRange, LengthMismatch

# CODATA 2018 fine-structure constant and electron rest energy in eV.
FINE_STRUCTURE_CONSTANT = 7.2973525693e-3
ELECTRON_MASS_EV = 510_998.946


class Ansatz(Enum):
    """Convention for continuing the Coulomb potential away from D = 3.

    ONE_OVER_R keeps the familiar 1/r shape in every spatial dimension.
    GENERALIZED uses the Gauss-law-consistent 1/r^(D-2) form, which conserves
    electric charge in D dimensions.
    """

    ONE_OVER_R = 1
    GENERALIZED = 2


class KSign(Enum):
    """Branch of the relativistic angular quantum number K = +-(2l + D - 1)/2."""

    PLUS = 1
    MINUS = -1


@dataclass(frozen=True)
class PhysicalConfig:
    """Problem statement for one hydrogen-like eigenvalue computation.

    Parameters
    ----------
    dimension : int
        Number of spatial dimensions, D >= 2.
    ell : int
        Orbital angular momentum quantum number, l >= 0.
    mass : float
        Particle rest energy in eV (only used when reporting binding energies).
    ansatz : Ansatz
        Coulomb continuation convention.
    k_sign : KSign
        Branch of K. The ground-state column reproduced here uses PLUS. The
        1/r^(D-2) potential at D >= 4 takes PLUS only: with K < 0 its
        denominator c rho^(D-3) + A, c = K lam^((4-D)/2), vanishes at
        rho = (A/-c)^(1/(D-3)), a pole that neither scheme can propagate
        through, so the configuration is rejected when it is built.
    """

    dimension: int
    ell: int = 0
    mass: float = ELECTRON_MASS_EV
    ansatz: Ansatz = Ansatz.GENERALIZED
    k_sign: KSign = KSign.PLUS

    def __post_init__(self):
        if not isinstance(self.dimension, int) or isinstance(self.dimension, bool):
            raise ValueError(f"dimension must be an integer, got {self.dimension!r}")
        if self.dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dimension}")
        if not isinstance(self.ell, int) or self.ell < 0:
            raise ValueError(f"ell must be a non-negative integer, got {self.ell!r}")
        if not (self.mass > 0.0 and math.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")
        if not isinstance(self.ansatz, Ansatz):
            raise ValueError(f"ansatz must be an Ansatz member, got {self.ansatz!r}")
        if not isinstance(self.k_sign, KSign):
            raise ValueError(f"k_sign must be a KSign member, got {self.k_sign!r}")
        if self.ansatz is Ansatz.GENERALIZED and self.dimension >= 4 and self.k_sign is KSign.MINUS:
            raise ValueError(
                f"the 1/r^(D-2) potential at D = {self.dimension} needs K > 0: with K < 0 the "
                "phi_+ equation has a pole where c rho^(D-3) + A = 0"
            )


def k_value(config: PhysicalConfig) -> float:
    """Relativistic angular quantum number K = +-(2l + D - 1)/2."""
    magnitude = (2 * config.ell + config.dimension - 1) / 2.0
    return magnitude if config.k_sign is KSign.PLUS else -magnitude


def _energy_scalars(ansatz: Ansatz, d: int, kval: float, xi: float, eta: float):
    """(lam, A, tau', tau, c, lam^(D-3)) of one trial energy, as Python floats.

    The 1/r^(D-2) potential has A = 2^(D-3) xi, tau' = A lam^((D-4)/2),
    tau = eta tau' and c = K lam^((4-D)/2); the 1/r potential has A = xi,
    tau' = xi/sqrt(lam), tau = xi eta/sqrt(lam), c = 0 and lam^0 = 1. At
    D = 3 the 1/r^(D-2) potential takes the 1/r scalars: its c enters the
    fields only times D - 3 = 0, and the integrating factor only through the
    constant factor sqrt(c + A), which log-derivatives and the unit
    normalisation remove. A trial takes these once, into the record that
    :func:`dimensionless_state` returns. The solver's block screen calls this once per
    energy, not on an array: numpy's array power can differ from
    ``float ** float`` in the last bit, and the screen must see the per-trial
    bits.
    """
    lam = (1.0 - eta) * (1.0 + eta)
    if ansatz is Ansatz.ONE_OVER_R or d == 3:
        sqrt_lam = math.sqrt(lam)
        return lam, xi, xi / sqrt_lam, xi * eta / sqrt_lam, 0.0, 1.0
    a_const = 2.0 ** (d - 3) * xi
    tau_prime = a_const * lam ** ((d - 4) / 2.0)
    c_const = kval * lam ** ((4.0 - d) / 2.0)
    lam_d3 = lam ** (d - 3)
    return lam, a_const, tau_prime, eta * tau_prime, c_const, lam_d3


def dimensionless_state(config: PhysicalConfig, eta: float, xi: float | None = None):
    """The :class:`~dirac_numerov.coefficients.CoefficientSet` of a trial energy ratio, computed once.

    Parameters
    ----------
    config : PhysicalConfig
    eta : float
        Trial E/M, |eta| < 1.
    xi : float, optional
        Coupling strength override. Defaults to the configured Coulomb
        coupling (see :func:`dirac_numerov.coefficients.coupling_xi`).

    Raises
    ------
    EtaOutOfRange
        If |eta| >= 1 (sqrt(M^2 - E^2) would turn imaginary).
    """
    if not abs(eta) < 1.0:
        raise EtaOutOfRange(f"|eta| must be < 1, got eta = {eta!r}")
    from .coefficients import CoefficientSet, coupling_xi

    if xi is None:
        xi = coupling_xi(config)
    d = config.dimension
    kval = k_value(config)
    lam, a_const, tau_prime, tau, c_const, lam_d3 = _energy_scalars(config.ansatz, d, kval, xi, eta)
    return CoefficientSet(
        eta=eta,
        lambda_=lam,
        xi=xi,
        a_const=a_const,
        tau=tau,
        tau_prime=tau_prime,
        c_const=c_const,
        lambda_d3=lam_d3,
        k_value=kval,
        dimension=d,
    )


def reconstruct_fg(phi_plus, phi_minus, mass: float, energy: float):
    """Rebuild the radial Dirac components from the decoupled combinations.

        G = sqrt(M - E) (phi_+ + phi_-),   F = sqrt(M + E) (phi_+ - phi_-)

    Returns (F, G) as numpy arrays. The 2x2 map is invertible whenever |E| < M.
    """
    if not abs(energy) < mass:
        raise EtaOutOfRange(f"|E| must be < M, got E = {energy!r}, M = {mass!r}")
    plus = np.asarray(phi_plus, dtype=float)
    minus = np.asarray(phi_minus, dtype=float)
    if plus.shape != minus.shape:
        raise LengthMismatch(f"phi_plus shape {plus.shape} != phi_minus shape {minus.shape}")
    f_comp = math.sqrt(mass + energy) * (plus - minus)
    g_comp = math.sqrt(mass - energy) * (plus + minus)
    return f_comp, g_comp


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid in the dimensionless radius rho over [rho_min, rho_max].

    The inner cutoff must stay strictly positive; the radial equation is
    singular at rho = 0. ``step`` is derived, never stored.
    """

    rho_min: float
    rho_max: float
    n_points: int

    def __post_init__(self):
        if not self.rho_min > 0.0:
            raise ValueError(f"rho_min must be positive, got {self.rho_min!r}")
        if not self.rho_max > self.rho_min:
            raise ValueError(f"rho_max must exceed rho_min, got [{self.rho_min!r}, {self.rho_max!r}]")
        if not isinstance(self.n_points, int) or self.n_points < 16:
            raise ValueError(f"n_points must be an integer >= 16, got {self.n_points!r}")

    @property
    def step(self) -> float:
        return (self.rho_max - self.rho_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        """Node positions rho_i = rho_min + i * step (cached, do not mutate)."""
        return _grid_nodes(self)


@lru_cache(maxsize=64)
def _grid_nodes(grid: RadialGrid) -> np.ndarray:
    nodes = np.linspace(grid.rho_min, grid.rho_max, grid.n_points)
    nodes.setflags(write=False)
    return nodes


def discrete_l2_norm(values, step: float) -> float:
    """Riemann discrete L2 norm sqrt(step * sum(values^2)); the package-wide convention."""
    values = np.asarray(values, dtype=float)
    return math.sqrt(step * float(np.dot(values, values)))


@dataclass(frozen=True)
class WaveSolution:
    """Sampled phi_+ eigenfunction with its reconstructed Dirac components.

    ``norm`` records the discrete L2 norm divided out during normalization;
    after construction the stored phi_plus has unit discrete L2 norm.
    """

    grid: RadialGrid
    phi_plus: np.ndarray
    f_component: np.ndarray
    g_component: np.ndarray
    norm: float


@dataclass(frozen=True)
class EigenResult:
    """Outcome of a ground-state search: an eigenvalue or a certified absence.

    ``epsilon_ev`` follows the binding-energy sign convention: negative for a
    bound state (epsilon = -(M - E) in eV). ``scan_trace`` holds (eta, mismatch)
    pairs from the coarse scan; mismatch is None where no classically-allowed
    island exists. ``mismatch_residual`` is NaN when no mismatch was ever
    evaluated. A dimension scan, which records each dimension's failure inline
    rather than raising it, sets ``error`` to the exception class of a search
    that failed instead of reaching a verdict, and ``wall_s`` to the seconds
    that dimension took. ``status`` names the outcome: ``found``, ``absent``
    (no accepted root), ``excited`` (the accepted root has nodes below the
    match point, so it is not the ground state) or ``error``. Only
    ``excited`` need be given; left empty, it is ``found``, ``error`` or
    ``absent`` by ``found`` and ``error``.
    """

    found: bool
    eta_star: float | None
    epsilon_ev: float | None
    match_rho: float | None
    mismatch_residual: float
    scan_trace: list = field(default_factory=list)
    verdict_reason: str = ""
    error: type | None = None
    wall_s: float | None = None
    status: str = ""

    def __post_init__(self):
        if not self.status:
            status = "found" if self.found else "error" if self.error is not None else "absent"
            object.__setattr__(self, "status", status)
