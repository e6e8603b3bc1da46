"""Coupling constant and coefficient functions of the second-order phi_+ equation.

The radial problem is propagated in the form

    phi'' + p(rho) phi' + w(rho) phi = 0,      w = q(rho) [tau - V(rho)],

where V is the effective potential whose crossing with the energy-side
constant tau locates the classical turning points. For the 1/r^(D-2)
potential the coefficient functions of the phi_+ component are

    den(rho) = c rho^(D-3) + A,        c = K lam^((4-D)/2)
    p(rho)   = (1/rho) (1 + (D-3) A / den)
    q(rho)   = m(rho) / rho^(D-2),     m = 1 + (D-3) c rho^(D-4) / den
    s(rho)   = rho^(D-2)/4 - (rho^(D-3)/2)(1 + (D-3) A / den)
               + (K^2 - A^2 lam^(D-3) / rho^(2(D-3))) rho^(D-4)
    V(rho)   = s(rho) / (rho^(D-2) q(rho))
    w(rho)   = (tau - V) / g = q tau - s / rho^(D-2),   g = 1/q = rho^(D-2) / m

Both potentials and both schemes form their weight as (tau - U)/g: U = V
gives w, and U = V + g (p^2/4 + p'/2) the canonical W = w - p^2/4 - p'/2.

At D >= 4 the 1/r^(D-2) potential is solved for K > 0 only. Then c > 0 and
A = 2^(D-3) xi > 0, so den >= A > 0 at every rho and no field has a pole.
With K < 0, den vanishes at rho = (A/-c)^(1/(D-3)): p, q and V have a pole
there and the canonical integrating factor is undefined beyond it, so
:class:`~dirac_numerov.core.PhysicalConfig` rejects that configuration.

These are the exact single-equation rewrite of the coupled first-order
system; at D = 3 they collapse to p = q = 1/rho, g = rho and
w = -1/4 + (tau + 1/2)/rho - (K^2 - xi^2)/rho^2, the closed-form-solvable
three-dimensional equation. The energy enters w through tau = eta tau',
multiplying the highest inverse powers of rho when D > 3.

The 1/r potential keeps the three-dimensional structure in every D (only K
changes), so its coefficient set uses tau = xi E / sqrt(M^2 - E^2) regardless
of dimension. The 1/r^(D-2) potential at D = 3 is built as that problem: one
record, :class:`CoefficientSet`, holds either continuation's scalars, and
c = 0 marks the three-dimensional structure. A trial energy has one such
record: :func:`~dirac_numerov.core.dimensionless_state` builds it and
:func:`build_coefficients` checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FINE_STRUCTURE_CONSTANT, Ansatz, PhysicalConfig
from .errors import UnsupportedDimension

def coupling_xi(config: PhysicalConfig) -> float:
    """Coulomb coupling strength xi for the configured potential convention.

    The Gauss-law potential carries the solid-angle normalization

        xi = 2 Gamma(D/2) e^2 / (pi^((D-2)/2) (D-2)),

    with e^2 equal to the three-dimensional fine-structure constant (the
    electric charge is assumed not to run with dimensionality). The 1/r
    convention uses xi = alpha in every dimension. At D = 3 both give alpha.
    """
    d = config.dimension
    if config.ansatz is Ansatz.ONE_OVER_R:
        return FINE_STRUCTURE_CONSTANT
    if d <= 2:
        raise UnsupportedDimension(
            f"the 1/r^(D-2) potential needs D >= 3, got D = {d}"
        )
    return (
        2.0
        * math.gamma(d / 2.0)
        * FINE_STRUCTURE_CONSTANT
        / (math.pi ** ((d - 2) / 2.0) * (d - 2))
    )


@dataclass(frozen=True)
class CoefficientSet:
    """The scalars of one trial energy's phi_+ equation, for either continuation (M = 1).

    :func:`~dirac_numerov.core.dimensionless_state` builds it. With eta = E/M
    and lam = 1 - eta^2, the 1/r^(D-2) potential has

        a_const   = 2^(D-3) xi
        tau_prime = 2^(D-3) xi / sqrt(M^2 - E^2)^(4-D) = a_const * lam^((D-4)/2)
        c_const   = K lam^((4-D)/2),    lambda_d3 = lam^(D-3),

    and the 1/r potential, like the 1/r^(D-2) one at D = 3, the
    three-dimensional scalars a_const = xi, tau_prime = xi/sqrt(lam),
    c_const = 0 and lambda_d3 = 1. Both have tau = eta * tau_prime, so the
    identities tau/tau_prime = eta and tau_prime^2 - tau^2 =
    a_const^2 lambda_d3 hold by construction. ``c_const == 0`` marks the
    three-dimensional structure. ``tau`` is the energy-side constant paired
    with the field ``v`` in w = (tau - V)/g.
    """

    eta: float
    lambda_: float
    xi: float
    a_const: float
    tau: float
    tau_prime: float
    c_const: float
    lambda_d3: float
    k_value: float
    dimension: int

    @property
    def turning_scale(self) -> float:
        """|tau'|: sets the outermost turning radius (~ 4 * turning_scale) and the automatic grid."""
        return abs(self.tau_prime)

    @property
    def singular_power(self) -> int:
        """The power in V = s / (rho^power q): 1 for c = 0, else D - 2."""
        return 1 if self.c_const == 0.0 else self.dimension - 2

    @property
    def gamma2(self) -> float:
        """K^2 - xi^2, the rho^-2 coefficient of the three-dimensional structure (c = 0)."""
        return self.k_value * self.k_value - self.xi * self.xi

    def fields_fn(self, rho):
        """Every field on rho (scalar or array), from one evaluation.

        Keys ``p``, ``p_prime``, ``q``, ``s``, ``v``, ``g`` and ``w``, with
        g = 1/q and w = (tau - V)/g.
        """
        if self.c_const == 0.0:
            return ansatz1_fields(rho, self.gamma2, self.tau)
        return general_fields(rho, self.dimension, self.k_value, self.a_const, self.c_const,
                              self.lambda_d3, self.tau)

    def integrating_factor_fn(self, rho):
        """exp(-1/2 int p) on rho, scalar or array, with phi = factor * chi.

        The canonical scheme propagates chi, the solution of the
        first-derivative-free form chi'' + W chi = 0, W = w - p^2/4 - p'/2,
        and matches it in chi; only the exported eigenfunction is mapped back
        to phi, with no quadrature error: rho^(-1/2) for c = 0, else
        sqrt(den / rho^(D-2)) from the partial-fraction closed form
        int p = (D-2) ln rho - ln den.
        """
        arr, scalar = _as_float_array(rho)
        if self.c_const == 0.0:
            factor = arr ** -0.5
        else:
            r_d3, _, _, r_d2 = _rho_powers(arr, self.dimension)
            factor = np.sqrt((self.c_const * r_d3 + self.a_const) / r_d2)
        return float(factor) if scalar else factor


def _as_float_array(rho):
    arr = np.asarray(rho, dtype=float)
    return arr, arr.ndim == 0


def _rho_powers(rho: np.ndarray, d: int):
    """rho^(D-3), rho^(D-4), rho^(2(D-3)), rho^(D-2) with exact low-D cases."""
    if d == 3:
        r_d3 = np.ones_like(rho)
        r_d4 = 1.0 / rho
    elif d == 4:
        r_d3 = rho
        r_d4 = np.ones_like(rho)
    elif d == 5:
        r_d3 = rho * rho
        r_d4 = rho
    else:
        r_d3 = rho ** (d - 3)
        r_d4 = rho ** (d - 4)
    return r_d3, r_d4, r_d3 * r_d3, r_d3 * rho


def static_fields(rho, d, kval, a_const, c_const, lam_d3):
    """Every field of the 1/r^(D-2) equation but w, the only one that holds tau.

    Returns p, p', q, s, V, den and g = 1/q.
    """
    arr, _ = _as_float_array(rho)
    dm3 = d - 3
    r_d3, r_d4, r_2d6, r_d2 = _rho_powers(arr, d)
    den = c_const * r_d3 + a_const
    a_over_den = dm3 * a_const / den
    p = (1.0 + a_over_den) / arr
    p_prime = -(1.0 + a_over_den) / arr ** 2 - dm3 * dm3 * a_const * c_const * r_d4 / (
        arr * den * den
    )
    m = 1.0 + dm3 * c_const * r_d4 / den
    q = m / r_d2
    s = (
        r_d2 / 4.0
        - (r_d3 / 2.0) * (1.0 + a_over_den)
        + (kval * kval - a_const * a_const * lam_d3 / r_2d6) * r_d4
    )
    v = s / (r_d2 * q)
    return {"p": p, "p_prime": p_prime, "q": q, "s": s, "v": v, "den": den, "g": r_d2 / m}


def _weight(level, potential, g, out=None):
    """u = (level - U)/g, into ``out`` when given: w for U = V, W for the canonical U."""
    return np.divide(np.subtract(level, potential, out=out), g, out=out)


def general_fields(rho, d, kval, a_const, c_const, lam_d3, tau):
    """Evaluate p, p', q, s, V, g, w for the 1/r^(D-2) equation on rho (array or scalar)."""
    arr, scalar = _as_float_array(rho)
    out = static_fields(arr, d, kval, a_const, c_const, lam_d3)
    out["w"] = _weight(tau, out["v"], out["g"])
    if scalar:
        out = {key: float(val) for key, val in out.items()}
    return out


def ansatz1_potential(rho, gamma2):
    """V = s = rho/4 - 1/2 + (K^2 - xi^2)/rho of the 1/r potential (energy-independent)."""
    return rho / 4.0 - 0.5 + gamma2 / rho


def ansatz1_fields(rho, gamma2, tau):
    """p, p', q, s, V, g, w for the 1/r potential (three-dimensional structure, any D)."""
    arr, scalar = _as_float_array(rho)
    s = ansatz1_potential(arr, gamma2)
    out = {"p": 1.0 / arr, "p_prime": -1.0 / (arr * arr), "q": 1.0 / arr, "s": s, "v": s, "g": arr,
           "w": _weight(tau, s, arr)}
    if scalar:
        out = {key: float(val) for key, val in out.items()}
    return out


def build_coefficients(state: CoefficientSet, config: PhysicalConfig) -> CoefficientSet:
    """``state`` itself, the record of one trial energy, once its dimension is checked.

    Raises
    ------
    UnsupportedDimension
        For the 1/r^(D-2) potential at D <= 2.
    """
    d = config.dimension
    if config.ansatz is Ansatz.GENERALIZED and d <= 2:
        raise UnsupportedDimension(f"the 1/r^(D-2) equation needs D >= 3, got D = {d}")
    return state
