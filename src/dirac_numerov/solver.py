"""Match-point shooting for the ground state, and certified-absence scans.

The search parameter is the energy ratio eta = E/M. For each trial eta the
solver

1. builds the coefficient set and a grid sized to cover the outermost
   classical turning point with decay margin,
2. looks for an *interior* classically-allowed island of tau - V(rho):
   a region bounded by forbidden zones on both sides. An allowed region
   attached to the inner grid boundary is the fall-to-center funnel of the
   supersingular 1/r^(D-2) attraction (D >= 4), not a bound-state well, and
   certifies "no turning point" exactly as a dense evaluation of V does.
   Where c = 0 (the 1/r family, and the Gauss law at D = 3) the island is
   the open interval between V's turning radii in closed form (:func:`_coulomb_radii`).
   For the Gauss law at D >= 4, solved for K > 0 only (with K < 0 the
   phi_+ equation has a pole where c rho^(D-3) + A = 0, and the
   configuration is rejected when built), the sign of tau - V is the sign of
   a polynomial whose negative leading part wins past a radius in closed form
   (:func:`_allowed_radius_bound`), so only the grid prefix below it is
   tested, about 1 % of the default grid at most. The scan takes this step
   for its whole window in one call (:func:`_screen_islands`), in numpy,
   each energy's scalars included. Where c = 0 it settles every
   energy whose turning radii are not real. For the Gauss law at D >= 4 it
   evaluates H for runs of energies over common prefixes and settles every energy
   whose own prefix holds only the funnel: every energy of the default
   scans. The energies it leaves open run steps 1-3 as rows of blocks (3b),
3. propagates from both ends to the island's outer turning node and forms
   the log-derivative mismatch Delta(eta) of the variable the scheme
   propagates, chi = phi/F (F the integrating factor) under the canonical
   scheme and phi under the generalized one, from fixed seeds: the two gaps
   share every zero and sign (:func:`_log_derivative_gap`), so no trial
   evaluates F, and only the exported eigenfunction is mapped back to phi.
   The two solutions are needed only at nodes m-1, m, m+1, so
   :func:`numerov.match_samples` obtains them from a tree-reduced product
   of the recurrence's 2x2 transfer matrices instead of a node-by-node
   sweep. The recurrence's step arrays A, C and S are built in one place,
   :func:`_step_arrays`, from the weight u = (tau - U)/g, for both
   potentials and both schemes, from tau and two energy-independent arrays
   cached per grid (:func:`_field_basis`), not the coefficient fields. Only
   :func:`eigenfunction`, which needs every node, sweeps, and it steps the
   same arrays. Every grid-sized array of the trial goes with ``out=`` into
   the solve's reused :class:`Workspace`,
3a. evaluates the scan's open energies on a steering grid, step at least
   ``_STEER_STEP``, only to find a sign change: both its ends are evaluated
   again on the production grid, and refinement, the nodeless check and
   every not-found verdict use the production grid alone (a search that
   cannot vouch for the production result reruns there), so only the
   scan trace's values before the accepted root are steering values,
3b. evaluates consecutive open energies that share a grid, where c = 0, as
   the rows of one block (:func:`_evaluate_block`): tau enters
   :func:`_step_arrays` as a column, and one transfer product per direction
   serves every row, each row bit for bit its lone trial. A block holds as
   many rows as fit in the doubles of one production trial
   (:func:`_block_budget`), so it stays in the workspace; each row's result
   or error reaches the search in scan order, so the search stops, and
   raises, where a trial at a time would. Refinement trials are blocks of
   one row,
4. refines every sign change of Delta by ITP steps (:func:`_bisect_bracket`:
   regula falsi, safeguarded to at most one trial more than bisection),
   accepting a root only when the final |Delta| passes the mismatch
   tolerance (log-derivative poles also flip the sign but never pass).

Bound levels accumulate at eta -> 1, so the scan grid is uniform in
ln(1 - eta^2): resolution concentrates where the spectrum lives. The scan
ascends in eta and stops at the first accepted root, which is the deepest
binding in the window. It is reported as the ground state only if its
outward solution has no node below the match point, counted past the
unresolved first steps (Johnson 1977, J. Chem. Phys. 67, 4086): a root with
nodes is an excited level, and the search ends not found.
"""

from __future__ import annotations

import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .coefficients import (CoefficientSet, _rho_powers, _weight, ansatz1_potential,
                           build_coefficients, coupling_xi, static_fields)
from .core import (
    ELECTRON_MASS_EV,
    Ansatz,
    EigenResult,
    PhysicalConfig,
    RadialGrid,
    WaveSolution,
    _energy_scalars,
    dimensionless_state,
    discrete_l2_norm,
    k_value,
    reconstruct_fg,
)
from .errors import ConfigError, NonFiniteValue
from .numerov import (
    Scheme,
    _canonical_factors,
    _general_sweep_lr,
    _general_sweep_rl,
    _generalized_arrays,
    _numerov_sweep_lr,
    _numerov_sweep_rl,
    _three_point_sum,
    match_samples,
    product_space,
)


_MAX_GRID_POINTS = 20_000_000
_BLOCK_DOUBLES = 8192  # cap on rows x prefix of each array of the screen's H
# ITP refinement (:func:`_bisect_bracket`): kappa1 times the initial bracket width, kappa2, n0
_ITP_KAPPA1 = 0.05
_ITP_KAPPA2 = 2.0
_ITP_N0 = 1
_STEER_STEP = 8e-3  # grid step floor of the scan's steering trials (:func:`solve_ground_state`)


@dataclass(frozen=True)
class SolverSettings:
    """Knobs of the eigenvalue search.

    The automatic grid covers the outermost turning radius (about
    4 * turning_scale) plus 44 units of decay margin (the far tail falls as
    exp(-rho/2), so the margin suppresses contamination of the inward sweep
    by ~exp(-22)), with a floor of 50; ``grid_b_scale`` multiplies the
    automatic extent, ``grid_b`` overrides it outright; a grid short of the
    turning radius plus margin is a configuration error. ``scan_points``
    trial energies are spaced uniformly in ln(1 - eta^2) across
    ``eta_window``.
    """

    eta_window: tuple = (0.5, 1.0 - 1e-9)
    scan_points: int = 2000
    root_tol: float = 1e-12
    mismatch_tol: float = 1e-8
    grid_a: float = 1e-6
    grid_b: float | None = None
    grid_b_scale: float = 1.0
    grid_delta: float = 1e-3
    scheme: Scheme = Scheme.CANONICAL
    min_island_nodes: int = 3

    def __post_init__(self):
        lo, hi = self.eta_window
        if not (0.0 < lo < hi < 1.0):
            raise ConfigError(
                f"eta_window must satisfy 0 < lo < hi < 1, got {self.eta_window!r} "
                "(negative-energy searches are out of scope)"
            )
        for name, low in (("scan_points", 2), ("min_island_nodes", 1)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("root_tol", "mismatch_tol", "grid_a", "grid_delta", "grid_b_scale"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value!r}")
        if self.grid_b is not None and not (self.grid_a < self.grid_b < math.inf):
            raise ConfigError(f"grid_b must be finite and exceed grid_a, got {self.grid_b!r}")
        if not isinstance(self.scheme, Scheme):
            raise ConfigError(f"scheme must be a Scheme member, got {self.scheme!r}")

    def _extent(self, turning_scale):
        """(rho_max, node count, turning radius plus decay margin) of turning scales, elementwise."""
        need = 4.0 * turning_scale + 44.0
        b = self.grid_b
        if b is None:  # quantized so per-grid caches hit
            b = 10.0 * np.ceil(np.maximum(50.0, need) * self.grid_b_scale / 10.0)
        return b, np.maximum(np.ceil((b - self.grid_a) / self.grid_delta) + 1.0, 16.0), need

    def resolve_grid(self, turning_scale: float) -> RadialGrid:
        """Concrete grid for a trial with the given outer turning scale."""
        b, n, need = self._extent(turning_scale)
        b, n, need = float(b), int(n), float(need)
        if b < need:
            name = "grid_b" if self.grid_b is not None else "grid_b_scale"
            raise ConfigError(f"{name} gives rho_max = {b:.6g}, short of the {need:.6g} that the "
                              "turning radius and its decay margin need")
        if n > _MAX_GRID_POINTS:
            raise ConfigError(
                f"grid would need {n} nodes (b = {b:.3g}, delta = {self.grid_delta:.3g}); "
                "narrow the eta window or coarsen the grid"
            )
        return RadialGrid(rho_min=self.grid_a, rho_max=b, n_points=n)


# ---------------------------------------------------------------------------
# interior-island detection


def _island_match_index(pos: np.ndarray, min_nodes: int) -> int | None:
    """Outer turning node of the outermost interior allowed island, else None.

    ``pos`` flags classically-allowed nodes. Islands touching the first node
    (the collapse funnel) or the last node (well truncated by the grid) do
    not qualify; neither do islands thinner than ``min_nodes``.
    """
    n = pos.shape[0]
    if not pos.any():
        return None
    flags = pos.view(np.int8)
    d = np.diff(flags)
    starts = np.flatnonzero(d == 1) + 1  # runs beginning after node 0
    if starts.size == 0:
        return None
    ends = np.flatnonzero(d == -1)  # last allowed node of terminated runs
    end_idx = np.searchsorted(ends, starts)
    for j in range(starts.size - 1, -1, -1):
        if end_idx[j] >= ends.size:
            continue  # island touches the outer boundary
        s = int(starts[j])
        e = int(ends[end_idx[j]])
        if e - s + 1 < min_nodes:
            continue
        m = e + 1  # first forbidden node beyond the outer turning point
        if m > n - 3:
            continue  # no room for the centered derivative stencil
        return m
    return None


@lru_cache(maxsize=2)
def _ansatz1_potential(grid: RadialGrid, gamma2: float):
    """V nodes of the 1/r family (energy-independent).

    A solve walks its grids in ascending order, and bisection needs at most
    the two either side of one step in b, so two entries serve it.
    """
    v = ansatz1_potential(grid.nodes(), gamma2)
    v.setflags(write=False)
    return v


@lru_cache(maxsize=32)
def _island_basis(grid: RadialGrid, d: int, kval: float, a_const: float, size: int):
    """Energy-independent arrays for the sign of tau - V, 1/r^(D-2) potential.

    With Q = rho^(D-2) q and den = c rho^(D-3) + A, both positive since the
    potential is built only for K > 0 at D >= 4 (c, A > 0), the
    allowed-region indicator sign(tau - V) equals sign(H) where

        H = (tau - V) Q den
          = c [tau (rho^(D-3) + (D-3) rho^(D-4)) - s0 rho^(D-3) + A^2 lam^(D-3) u rho^(D-3)]
          + A [tau - s0 + (D-3) rho^(D-3)/2 + A^2 lam^(D-3) u],

    s0 = rho^(D-2)/4 - rho^(D-3)/2 + K^2 rho^(D-4),  u = rho^(D-4)/rho^(2(D-3)).

    Division-free, and built only for the first ``size`` nodes: the sign test
    looks only up to the bound of :func:`_allowed_radius_bound`, so the callers
    pass that prefix length rounded up to a power of two (the cache then holds
    a handful of short arrays per dimension, not five full-grid ones).
    """
    rho = grid.nodes()[:size]
    r_d3, r_d4, r_2d6, r_d2 = _rho_powers(rho, d)
    dm3 = d - 3
    s0 = r_d2 / 4.0 - r_d3 / 2.0 + (kval * kval) * r_d4
    u = r_d4 / r_2d6
    del r_2d6, r_d2  # not held while the basis is built: a long prefix's peak stays low
    basis = (
        r_d3 + dm3 * r_d4,          # multiplies c * tau
        s0 * r_d3,                  # multiplies -c
        u * r_d3,                   # multiplies c * A^2 lam^(D-3)
        dm3 * (r_d3 / 2.0) - s0,    # multiplies A
        u,                          # multiplies A^3 lam^(D-3)
    )
    for arr in basis:
        arr.setflags(write=False)
    return basis


def _trial_row(coeffs: CoefficientSet):
    """The scalars (D, K, A, c, tau, lam^(D-3)) that H and its bound take, of a trial."""
    return (coeffs.dimension, coeffs.k_value, coeffs.a_const, coeffs.c_const, coeffs.tau,
            coeffs.lambda_d3)


def _polynomial_tail(d, kval, a, c, tau, lam):
    """(coefficient, power) terms of P = H rho^(D-2) beyond its leading part.

    With e = D - 3 and lam_e = ``lam`` = lam^(D-3),

        P = -c rho^(3e) (rho^2/4 - rho/2 + K^2) - (A/4) rho^(2e+2)
            + (c tau + (e+1) A/2) rho^(2e+1) + (c e tau - A K^2) rho^(2e)
            + A tau rho^(e+1) + c A^2 lam_e rho^e + A^3 lam_e,

    a polynomial of degree 3D - 7; this returns every term after the first.
    """
    e = d - 3
    kk = kval * kval
    return (
        (-0.25 * a, 2 * e + 2),
        (c * tau + 0.5 * (e + 1) * a, 2 * e + 1),
        (c * e * tau - a * kk, 2 * e),
        (a * tau, e + 1),
        (c * a * a * lam, e),
        (a * a * a * lam, 0),
    )


def _allowed_radius_bound(d, kval, a, c, tau, lam):
    """Radius R past which tau - V < 0 (1/r^(D-2) potential at D >= 4, K > 0).

    Takes the scalars of :func:`_trial_row`, c, tau and lam as floats or 1-d
    arrays (one entry per energy), R in their shape; numpy's array power runs
    either way, so a trial and the window screen get the same bits. With e = D - 3,
    P's leading part is -c rho^(3e) (rho^2/4 - rho/2 + K^2), and its factor is
    (1 - 1/(4K^2)) rho^2/4 + (rho/(4K) - K)^2 = (rho - 1)^2/4 + K^2 - 1/4, so the
    part is at most -max(L rho^(3e+2), M rho^(3e)), L = (c/4)(1 - 1/(4K^2)) and
    M = c(K^2 - 1/4) both > 0 (c > 0, K^2 >= 9/4). Each of the N positive tail
    terms a_k rho^k stays below that maximum over N past (N a_k/L)^(1/(3e+2-k))
    or, for k < 3e, past (N a_k/M)^(1/(3e-k)); a term of degree 3e with
    N a_k < M, at every rho. So P < 0 beyond the largest of these smaller radii.
    """
    shape = np.shape(c)
    c, tau, lam = (np.reshape(x, -1) for x in (c, tau, lam))
    top = 3 * (d - 3)
    lead = 0.25 * c * (1.0 - 0.25 / (kval * kval))
    floor = c * (kval * kval - 0.25)
    tail = _polynomial_tail(d, kval, a, c, tau, lam)[1:]  # the first, -A rho^(2e+2)/4, is negative
    n_terms = sum(coef > 0.0 for coef, _ in tail)
    radius = np.zeros_like(c)
    for coef, k in tail:
        share = n_terms * np.maximum(coef, 0.0)  # 0, so radius 0, where the term is not positive
        term = (share / lead) ** (1.0 / (top + 2 - k))
        if k < top:
            term = np.minimum(term, (share / floor) ** (1.0 / (top - k)))
        elif k == top:
            term[share < floor] = 0.0
        radius = np.maximum(radius, term)
    return radius.reshape(shape)


def _prefix_stop(grid: RadialGrid, bound):
    """Nodes tested, elementwise: those up to ``bound`` plus three (see :func:`_match_index`)."""
    return np.minimum(grid.n_points, np.maximum(0.0, np.ceil((bound - grid.rho_min) / grid.step)) + 4
                      ).astype(np.int64)


def _gauss_allowed(grid: RadialGrid, stop: int, d, kval, a, c, tau, lam) -> np.ndarray:
    """Allowed-node flags (H > 0) of the first ``stop`` nodes, 1/r^(D-2) potential.

    Takes the scalars of :func:`_trial_row`: floats give one row of flags;
    c, tau and lam as column vectors give one row per energy, each bit for bit
    the row that its floats give.
    """
    size = min(grid.n_points, 1 << int(stop - 1).bit_length())
    r34, s0r3, ur3, s0m, u = (arr[:stop] for arr in _island_basis(grid, d, kval, a, size))
    a2l = a * a * lam
    # two scratch arrays, explicit out=: no temporary churn in the screen's hot loop
    h_sign = np.multiply(r34, tau * c)
    tmp = np.multiply(ur3, a2l * c)
    np.add(h_sign, tmp, out=h_sign)
    np.multiply(s0r3, c, out=tmp)
    np.subtract(h_sign, tmp, out=h_sign)
    np.multiply(u, a2l * a, out=tmp)
    np.add(h_sign, tmp, out=h_sign)
    np.multiply(s0m, a, out=tmp)
    np.add(h_sign, tmp, out=h_sign)
    h_sign += a * tau
    return h_sign > 0.0


def _coulomb_disc(tau, gamma2):
    """(tau + 1/2)^2 - gamma^2, elementwise: where c = 0, no rho has tau > V unless it is > 0."""
    return (tau + 0.5) * (tau + 0.5) - gamma2


def _coulomb_radii(tau: float, gamma2: float):
    """(r-, r+), where c = 0: tau > V exactly between them; None if :func:`_coulomb_disc` <= 0."""
    disc = _coulomb_disc(tau, gamma2)
    if disc <= 0.0:
        return None
    outer = 2.0 * (tau + 0.5 + math.sqrt(disc))  # r+ = 2(tau + 1/2) + 2 sqrt(disc)
    return 4.0 * gamma2 / outer, outer  # r- = 4 gamma^2/r+, free of the difference's cancellation


def _match_index(coeffs: CoefficientSet, grid: RadialGrid, min_nodes: int) -> int | None:
    """Island detection for the two potentials.

    With c = 0 (the 1/r family, and the 1/r^(D-2) potential at D = 3) the
    island is the nodes between the :func:`_coulomb_radii`. The 1/r^(D-2) potential at D >= 4,
    which is built only for K > 0 (so c, A > 0), tests only the nodes up to
    the bound of :func:`_allowed_radius_bound` plus three: every node past
    it is forbidden, and the three keep the centred stencil of an island
    ending at the bound inside the prefix, so the match index equals the
    full-grid one. A prefix whose last node is still allowed (rounding at
    the bound) is widened to the whole grid.
    """
    if coeffs.c_const == 0.0:
        radii = _coulomb_radii(coeffs.tau, coeffs.gamma2)
        if radii is None:
            return None
        s = int(np.searchsorted(grid.nodes(), radii[0], side="right"))  # first allowed node
        m = int(np.searchsorted(grid.nodes(), radii[1]))  # first forbidden node past it
        return m if s > 0 and m - s >= min_nodes and m <= grid.n_points - 3 else None
    row = _trial_row(coeffs)
    stop = int(_prefix_stop(grid, _allowed_radius_bound(*row)))
    allowed = _gauss_allowed(grid, stop, *row)
    if allowed[-1] and stop < grid.n_points:
        allowed = _gauss_allowed(grid, grid.n_points, *row)
    return _island_match_index(allowed, min_nodes)


# ---------------------------------------------------------------------------
# mismatch evaluation


@lru_cache(maxsize=2)
def _field_basis(grid: RadialGrid, scheme: Scheme, scalars):
    """Energy-independent arrays (U, g) of a trial's weight u = (tau - U)/g on ``grid``.

    ``scalars`` = (gamma^2,) with gamma^2 = K^2 - xi^2 where c = 0 (the 1/r
    family, and the 1/r^(D-2) potential at D = 3), else (D, K, A, c,
    lam^(D-3)) of :func:`static_fields`. g = 1/q. U = V
    gives w (generalized scheme), U = V + g (p^2/4 + p'/2) gives
    W = w - p^2/4 - p'/2 (canonical). The generalized scheme adds p h/2 and
    p' at the interior nodes, for p0 and p2.
    """
    nodes = grid.nodes()
    if len(scalars) == 1:  # ansatz1_fields' p, p' and g, and the cached V: no other temporaries
        p, p_prime, g, v = 1.0 / nodes, -1.0 / (nodes * nodes), nodes, _ansatz1_potential(grid, *scalars)
    else:
        f = static_fields(nodes, *scalars)
        p, p_prime, g, v = (f[key] for key in ("p", "p_prime", "g", "v"))
        del f  # the other fields are not held while the basis is built
    if scheme is Scheme.CANONICAL:
        p *= p  # U = V + g (p^2/4 + p'/2), in place: no more grid-sized temporaries
        p /= 4.0
        p_prime /= 2.0
        p += p_prime
        p *= g
        basis = (np.add(v, p, out=p), g)
    else:
        basis = (v, g, p[1:-1] * grid.step / 2.0, p_prime[1:-1])
    for arr in basis:
        arr.setflags(write=False)
    return basis


def _weight_basis(coeffs: CoefficientSet, grid: RadialGrid, scheme: Scheme):
    """:func:`_field_basis` of a trial, from the per-grid cache where it holds no energy.

    With c = 0 (the 1/r family, and the 1/r^(D-2) potential at D = 3) the
    fields hold none of the trial's scalars but gamma^2. For 1/r^(D-2) at
    D >= 4 they depend on c nonlinearly and are evaluated for the trial.
    """
    if coeffs.c_const == 0.0:
        return _field_basis(grid, scheme, (coeffs.gamma2,))
    return _field_basis.__wrapped__(grid, scheme, (coeffs.dimension, coeffs.k_value, coeffs.a_const,
                                                   coeffs.c_const, coeffs.lambda_d3))


def _step_arrays(coeffs: CoefficientSet, grid: RadialGrid, scheme: Scheme, work: Workspace, tail: int,
                 tau=None):
    """(A, C, S, rest): the trial's recurrence at the interior nodes 1..n-2, views of ``work``.

    A y[i-1] = (A - S + C) y[i] - C y[i+1] with A = f[i-1], C = f[i+1]
    (canonical) or p0, p2 (generalized), and S = (h^2/12)(u[i-1] + 10 u[i] +
    u[i+1]) from the weight u = (tau - U)/g of :func:`_weight_basis`. ``work``
    holds f and S (p0, p2 and S), then ``rest``, ``tail`` doubles, whose
    first n a row (``tail`` >= R n) hold u while the arrays are formed. ``tau``, a column
    of the levels of R energies that share ``coeffs``' basis (c = 0), gives
    (R, n - 2) arrays, one row per level, in the same ufunc calls; without it
    the arrays are 1-d, at ``coeffs.tau``. The mismatch's product and the
    eigenfunction's sweeps both take their arrays here.
    """
    n = grid.n_points
    h = grid.step
    rows = 1 if tau is None else tau.shape[0]
    shape, inner = ((n,), (n - 2,)) if tau is None else ((rows, n), (rows, n - 2))
    count = 2 if scheme is Scheme.CANONICAL else 3
    space = work.take(count * rows * n + tail)
    rest = space[count * rows * n :]
    u = rest[: rows * n].reshape(shape)
    basis = _weight_basis(coeffs, grid, scheme)
    _weight(coeffs.tau if tau is None else tau, *basis[:2], u)
    if scheme is Scheme.CANONICAL:
        f, s = space[: rows * n].reshape(shape), space[rows * n : rows * (2 * n - 2)].reshape(inner)
        _canonical_factors(u, h, f)
        lower, upper = f[..., :-2], f[..., 2:]
    else:
        lower, upper, s = (space[i * rows * n : rows * (i * n + n - 2)].reshape(inner) for i in range(3))
        _generalized_arrays(*basis[2:], u[..., :-2], u[..., 2:], h, (lower, upper), s)
    _three_point_sum(u, h, s)
    return lower, upper, s, rest


def _seeds(h: float):
    """(y[0], y[1]) = (0, 1) and (y[n-1], y[n-2]) = (1, e^(h/2)), the seeds of both propagations.

    The inner scale cancels in the log-derivative, and the outer ratio's
    O(h/b) error is suppressed by the grid's decay margin.
    """
    return (0.0, 1.0), (1.0, math.exp(h / 2.0))


def _outward_nodes(eta: float, m: int, config: PhysicalConfig, settings: SolverSettings,
                   work: Workspace) -> int:
    """Sign changes of the outward solution at ``eta`` on nodes 1..m: 0 for the ground state.

    The scheme's outward sweep steps the :func:`_step_arrays` recurrence from
    the inner seed of :func:`_seeds` to node m+1, in ``work``. chi = phi/F has
    the sign of phi, so the count is phi_+'s under either scheme, past the last
    step below m whose A or C is <= 0: unresolved, near the cutoff, it may flip the sign.
    """
    coeffs, grid = _trial_setup(eta, config, settings)
    lower, upper, s, _ = _step_arrays(coeffs, grid, settings.scheme, work, grid.n_points)
    values = [*_seeds(grid.step)[0]] + [0.0] * m
    sweep = _numerov_sweep_lr if settings.scheme is Scheme.CANONICAL else _general_sweep_lr
    sweep(lower, upper, s, values, 1, m + 1)
    unresolved = np.flatnonzero((lower[: m - 1] <= 0.0) | (upper[: m - 1] <= 0.0))
    start = int(unresolved[-1]) + 2 if unresolved.size else 1  # lower[i - 1] is node i's step
    return int(np.count_nonzero(np.diff(np.signbit(values[start : m + 1]))))


def _propagate_halves(coeffs: CoefficientSet, grid: RadialGrid, m: int, scheme: Scheme):
    """Sweep from both boundaries to the match node m, node by node.

    Returns (left, right) python lists: left holds nodes 0..m+1, right holds
    nodes m-1..N-1 (entries outside each range are zero fillers). Values are
    chi samples under the canonical scheme and phi samples under the
    generalized one, from :func:`_seeds`, and the sweeps step the
    :func:`_step_arrays` recurrence that :func:`_mismatch_at_match`
    multiplies. Only :func:`eigenfunction` needs every node.
    """
    n = grid.n_points
    lower, upper, s, _ = _step_arrays(coeffs, grid, scheme, Workspace(), n)
    inner, outer = _seeds(grid.step)
    left = [*inner] + [0.0] * (n - 2)
    right = [0.0] * (n - 2) + [outer[1], outer[0]]
    if scheme is Scheme.CANONICAL:
        _numerov_sweep_lr(lower, upper, s, left, 1, m + 1)
        _numerov_sweep_rl(lower, upper, s, right, n - 2, m - 1)
    else:
        _general_sweep_lr(lower, upper, s, left, 1, m + 1)
        _general_sweep_rl(lower, upper, s, right, n - 2, m - 1)
    return left, right


def _log_derivative_gap(left, right, h) -> float:
    """[y'/y]_left - [y'/y]_right at node m, centred on each side's samples at m-1, m, m+1.

    y is the variable the scheme propagates: chi = phi/F under the canonical
    scheme (F the integrating factor), phi under the generalized one. The chi
    gap has every zero and every sign of the phi gap. With a = y[m+1]/y[m]
    and b = y[m-1]/y[m] of each side, both sides obey the recurrence
    A y[m-1] = B y[m] - C y[m+1] at m, so b_L - b_R = -(C/A)(a_L - a_R) and

        Delta_chi = (a_L - a_R)(1 + C/A) / (2h),
        Delta_phi = (a_L - a_R)(F[m+1]/F[m] + (F[m-1]/F[m]) C/A) / (2h).

    Both brackets are positive where F > 0 and C/A > 0, and their ratio is
    1 + O(h^2), so the mismatch needs no factor.
    """
    for val in (*left, *right):
        if not math.isfinite(val) or 0.0 < abs(val) < sys.float_info.min:
            raise NonFiniteValue("non-finite samples, or samples that underflow, at the match node")
    if left[1] == 0.0 or right[1] == 0.0:
        return math.inf
    d_left = (left[2] - left[0]) / (2.0 * h * left[1])
    d_right = (right[2] - right[0]) / (2.0 * h * right[1])
    return d_left - d_right


class Workspace:
    """The buffer a solve's swept trials write every grid-sized array into.

    Allocated at the first swept trial and grown to the largest grid the solve
    meets, so its pages are faulted in once per solve, not on every trial.
    """

    def __init__(self):
        self.buffer = np.empty(0)

    def take(self, size: int) -> np.ndarray:
        if self.buffer.size < size:
            self.buffer = np.empty(size)
        return self.buffer


def _mismatch_at_match(coeffs, grid, m, scheme, work=None) -> float:
    """Delta = [y'/y]_left - [y'/y]_right at the match node m, without a sweep.

    y is chi (canonical) or phi (generalized), see :func:`_log_derivative_gap`,
    propagated from :func:`_seeds`. Every array is a view of ``work`` (fresh
    if None): the :func:`_step_arrays` rows, then the product's space, 6n
    doubles in all (7n generalized).
    """
    h = grid.step
    lower, upper, s, product = _step_arrays(coeffs, grid, scheme, work or Workspace(),
                                            product_space(grid.n_points - 2))
    left, right = match_samples(lower, upper, s, m, *_seeds(h), product)
    return _log_derivative_gap(left, right, h)


def _trial_setup(eta: float, config: PhysicalConfig, settings: SolverSettings):
    """(coeffs, grid) of one trial energy: its coefficient record and the grid that covers it.

    :func:`core.dimensionless_state` computes the record once for the
    configured potential.
    """
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    return coeffs, settings.resolve_grid(coeffs.turning_scale)


def _evaluate_trial(eta: float, config: PhysicalConfig, settings: SolverSettings, work=None):
    """(delta, match_index, grid) for one trial energy, in ``work``; delta None if no island."""
    (outcome,) = _evaluate_block([eta], config, settings, settings, work)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _trial_doubles(n: int, scheme: Scheme, rows: int = 1, k: int | None = None) -> int:
    """Workspace doubles of ``rows`` swept trials on n nodes as one block: step arrays and product.

    ``k`` is the most factors of a row's product, n - 2 when None (a lone
    trial's product is sized before its match node is known).
    """
    return (2 if scheme is Scheme.CANONICAL else 3) * rows * n + product_space(n - 2 if k is None else k, rows)


def _row_factors(n: int, m) -> int:
    """The most factors of a row's two products on n nodes at match node m: 0 without an island."""
    return 0 if m is None else max(n - 2 - m, m - 1)


def _block_budget(coeffs: CoefficientSet, settings: SolverSettings, work: Workspace) -> int:
    """Doubles a block may take: those of one trial of ``settings`` at ``coeffs``.

    0 for the 1/r^(D-2) potential at D >= 4 (c > 0), whose weight's fields
    hold the energy, so each energy is a block of its own. Otherwise
    ``work`` grows to that trial's doubles at once: the production trials
    that follow reuse the block's buffer instead of replacing it.
    """
    if coeffs.c_const != 0.0:
        return 0
    budget = _trial_doubles(int(settings._extent(coeffs.turning_scale)[1]), settings.scheme)
    work.take(budget)
    return budget


def _block_samples(rows, scheme: Scheme, work: Workspace):
    """(left, right) match samples of each row (eta, coeffs, grid, m), the rows sharing one grid, c = 0.

    One (R, n) array each of A, C and S with the levels as a column, and one
    transfer product per direction for all rows (:func:`numerov.match_samples`
    with a row axis), in ``work``.
    """
    _, coeffs, grid, _ = rows[0]
    n = grid.n_points
    tau = np.array([[row[1].tau] for row in rows])
    widest = max(_row_factors(n, row[3]) for row in rows)
    lower, upper, s, space = _step_arrays(coeffs, grid, scheme, work, product_space(widest, len(rows)), tau)
    left, right = match_samples(lower, upper, s, np.array([row[3] for row in rows]), *_seeds(grid.step),
                                space)
    return zip(left.tolist(), right.tolist())


def _evaluate_block(etas, config: PhysicalConfig, settings: SolverSettings, steer: SolverSettings,
                    work=None) -> list:
    """The outcome of each energy of a prefix of ``etas``, evaluated under ``steer`` as one block.

    An outcome is :func:`_evaluate_trial`'s (delta, match_index, grid), or
    the package error that trial raises, for the caller to raise when it
    reaches that energy. The prefix holds one energy or more that share the
    first one's grid, as many as fit in :func:`_block_budget` at
    ``settings``, each row counted at the most factors of any row's product;
    an energy whose grid differs, or whose setup fails, ends it. Two energies
    or more with an island take :func:`_block_samples`; each of them is
    bit for bit its lone trial, which a lone energy runs, and so does every
    energy of a block that raised.
    """
    work = work or Workspace()
    rows, cap, widest = [], 1, 0
    for eta in etas:
        try:
            coeffs, grid = _trial_setup(eta, config, steer)
            if rows and grid != rows[0][2]:
                break
            m = _match_index(coeffs, grid, steer.min_island_nodes)
        except (ValueError, ArithmeticError) as exc:
            if rows:
                break  # it starts the next block, which raises it
            return [exc]
        if len(etas) > 1:  # a lone energy needs no budget
            n = grid.n_points
            widest = max(widest, _row_factors(n, m))
            if not rows:
                budget = _block_budget(coeffs, settings, work)
                cap = max(1, budget // _trial_doubles(n, steer.scheme, 1, widest))  # rows like the first
            elif _trial_doubles(n, steer.scheme, len(rows) + 1, widest) > budget:
                break  # a wider row that does not fit: it starts the next block
        rows.append((eta, coeffs, grid, m))
        if len(rows) == cap:
            break
    live = [row for row in rows if row[3] is not None]
    samples = None
    if len(live) > 1:
        try:
            samples = _block_samples(live, steer.scheme, work)
        except (ValueError, ArithmeticError):
            pass  # each row alone raises what its own trial does
    outcomes = []
    for eta, coeffs, grid, m in rows:
        if m is None:
            outcomes.append((None, None, grid))
            continue
        try:
            delta = (_mismatch_at_match(coeffs, grid, m, steer.scheme, work) if samples is None
                     else _log_derivative_gap(*next(samples), grid.step))
        except NonFiniteValue as exc:
            exc.eta = eta
            outcomes.append(exc)
        except (ValueError, ArithmeticError) as exc:
            outcomes.append(exc)
        else:
            outcomes.append((delta, m, grid))
    return outcomes


def _scan_etas(window, n_points: int) -> np.ndarray:
    lo, hi = window
    lam_hi = (1.0 - lo) * (1.0 + lo)
    lam_lo = (1.0 - hi) * (1.0 + hi)
    lams = np.exp(np.linspace(math.log(lam_hi), math.log(lam_lo), n_points))
    etas = np.sqrt(1.0 - lams)
    etas[0] = lo
    etas[-1] = hi
    return etas


def _screen_islands(config: PhysicalConfig, settings: SolverSettings, etas) -> np.ndarray:
    """True for each energy of ``etas`` proven to have no interior island, as one call.

    An energy left False goes to :func:`_evaluate_trial`, which decides it,
    and so does every energy whose grid would exceed ``_MAX_GRID_POINTS`` or
    fall short of its extent (the trial raises there). One
    :func:`core._energy_scalars` call on the array gives every energy's
    scalars, each bit for bit its trial's; the rest is numpy too.

    * Where c = 0 (the 1/r family, and the Gauss law at D = 3, whose
      scalars are the 1/r ones) an energy is settled exactly when its
      :func:`_coulomb_disc` is <= 0: its trial's :func:`_coulomb_radii` are None.
    * The Gauss law at D >= 4 (K > 0 only) evaluates H for consecutive
      energies of one grid together, :func:`_gauss_allowed` with the scalars
      as columns, over the longest of their :func:`_prefix_stop` prefixes, at
      most ``_BLOCK_DOUBLES`` values per array (an energy whose own prefix is
      longer goes alone). Each row's flags equal those its trial computes, so
      an energy is settled when its own prefix holds no forbidden-to-allowed
      step and ends on a forbidden node: its trial finds no island either.
    """
    d = config.dimension
    kval = k_value(config)
    etas = np.asarray(etas, dtype=float)
    scalars = _energy_scalars(config.ansatz, d, kval, coupling_xi(config), etas)
    a = scalars[1]  # A holds no energy
    tau_prime, tau, c, lam = np.broadcast_arrays(*scalars[2:])
    b, n, need = (np.broadcast_to(x, tau.shape) for x in settings._extent(np.abs(tau_prime)))
    fits = (n <= _MAX_GRID_POINTS) & (b >= need)
    if not c.any():  # c = 0 at every energy or none
        return fits & (_coulomb_disc(tau, kval * kval - a * a) <= 0.0)
    settled = np.zeros(tau.shape, dtype=bool)
    bound = _allowed_radius_bound(d, kval, a, c, tau, lam)
    tested = np.flatnonzero(fits)
    for run in np.split(tested, np.flatnonzero(np.diff(b[tested])) + 1) if tested.size else ():
        grid = RadialGrid(settings.grid_a, float(b[run[0]]), int(n[run[0]]))  # one grid a run
        stops = _prefix_stop(grid, bound[run])
        while run.size:  # as many rows as fit _BLOCK_DOUBLES, at least one
            widths = np.maximum.accumulate(stops)
            count = max(1, int(np.searchsorted(widths * np.arange(1, run.size + 1), _BLOCK_DOUBLES,
                                               side="right")))
            index, own, width = run[:count], stops[:count], int(widths[count - 1])
            allowed = _gauss_allowed(grid, width, d, kval, a, *(x[index, None] for x in (c, tau, lam)))
            allowed &= np.arange(width) < own[:, None]  # each row's own prefix
            rises = (allowed[:, 1:] > allowed[:, :-1]).any(axis=1)
            settled[index] = ~(rises | allowed[np.arange(count), own - 1])
            run, stops = run[count:], stops[count:]
    return settled


def _scan_trials(config: PhysicalConfig, settings: SolverSettings, work: Workspace,
                 steer: SolverSettings):
    """(points, swept) of the scan energies in ascending order, points a list of (eta, Delta).

    Delta is None without an island. :func:`_screen_islands` settles what it
    can of the whole window at once, on the grids of ``settings``; each run
    of settled energies comes as one item (swept False), and the rest come
    lazily, one energy an item (swept True), evaluated by
    :func:`_evaluate_block` under ``steer``, a block of rows a call. An
    energy's error is raised when the scan reaches it. A caller that stops
    early has evaluated at most one block of rows less one past its stop.
    """
    etas = _scan_etas(settings.eta_window, settings.scan_points)
    opened_at = np.flatnonzero(~_screen_islands(config, settings, etas)).tolist()
    etas = etas.tolist()
    opened = [etas[i] for i in opened_at]
    start = first = end = 0  # next scan index to yield; opened[first:end] is the block evaluated
    for k, i in enumerate(opened_at):
        if start < i:  # the run of settled energies before it
            yield list(zip(etas[start:i], [None] * (i - start))), False
        if k == end:
            outcomes = _evaluate_block(opened[k:], config, settings, steer, work)
            first, end = k, k + len(outcomes)
        outcome = outcomes[k - first]
        if isinstance(outcome, Exception):
            raise outcome
        yield [(etas[i], outcome[0])], True
        start = i + 1
    if start < len(etas):
        yield list(zip(etas[start:], [None] * (len(etas) - start))), False


def mismatch_scan(config: PhysicalConfig, settings: SolverSettings | None = None):
    """Full (eta, Delta) sweep over the window, without root finding.

    Entries carry None where no interior island exists. Used by the profile
    export and by certification tests; ground-state searches use
    :func:`solve_ground_state`, which stops at the first accepted root.
    """
    settings = settings or SolverSettings()
    # tau' is monotone in eta, so the grids at the window's ends (the first
    # and last scan energies) bound every trial's: a window whose grid is too
    # large fails before the first trial
    for eta in settings.eta_window:
        _trial_setup(float(eta), config, settings)
    return [point for points, _ in _scan_trials(config, settings, Workspace(), settings) for point in points]


def _bisect_bracket(eta_lo, d_lo, eta_hi, d_hi, config, settings, work=None):
    """Shrink a sign-change bracket; return (eta, delta, m, grid) or None.

    Each step is the ITP estimate (Oliveira & Takahashi 2020, ACM TOMS 47(1),
    art. 5): the regula-falsi point, pushed toward the midpoint by
    kappa1 (b - a)^kappa2 and kept within the distance of the midpoint that
    leaves a bracket of root_tol after n_1/2 + n0 steps, so it needs at most
    n0 more trials than bisection to reach root_tol and converges
    superlinearly where Delta is smooth. It steps at the midpoint once that
    budget is spent, where the regula-falsi point is undefined (equal or
    non-finite ends) and where the estimate leaves the bracket.

    Refinement continues past root_tol down to machine width if the mismatch
    has not yet met the acceptance tolerance: near weak binding d Delta/d eta
    is enormous, so the residual, not the bracket width, is the binding
    criterion. Poles converge too but never pass the residual test.
    """
    negative_lo = d_lo < 0.0
    eps = 0.5 * settings.root_tol
    kappa1 = _ITP_KAPPA1 / (eta_hi - eta_lo)
    budget = max(0, math.ceil(math.log2((eta_hi - eta_lo) / (2.0 * eps)))) + _ITP_N0
    last = None
    for step in range(200):
        mid = 0.5 * (eta_lo + eta_hi)
        if mid == eta_lo or mid == eta_hi:
            break
        width = eta_hi - eta_lo
        radius = eps * 2.0 ** (budget - step) - 0.5 * width
        eta = mid
        if radius > 0.0 and d_lo != d_hi and math.isfinite(d_lo) and math.isfinite(d_hi):
            falsi = eta_lo + width * d_lo / (d_lo - d_hi)
            toward = math.copysign(1.0, mid - falsi)
            push = max(kappa1 * width**_ITP_KAPPA2, math.ulp(mid))  # at least one float step
            eta = falsi + toward * push if push <= abs(mid - falsi) else mid
            if abs(eta - mid) > radius:
                eta = mid - toward * radius
            if not eta_lo < eta < eta_hi:
                eta = mid
        d_eta, m_eta, grid_eta = _evaluate_trial(eta, config, settings, work)
        if d_eta is None:
            return None  # island evaporated inside the bracket: not a root
        last = (eta, d_eta, m_eta, grid_eta)
        if d_eta == 0.0:
            break
        if (d_eta < 0.0) == negative_lo:
            eta_lo, d_lo = eta, d_eta
        else:
            eta_hi, d_hi = eta, d_eta
        if (eta_hi - eta_lo) <= settings.root_tol and abs(d_eta) <= settings.mismatch_tol:
            break
    return last


def _brackets(d_lo, d_hi) -> bool:
    """Whether two mismatch values (None without an island) are finite and differ in sign."""
    return (d_lo is not None and d_hi is not None and math.isfinite(d_lo) and math.isfinite(d_hi)
            and (d_lo < 0.0) != (d_hi < 0.0))


def solve_ground_state(config: PhysicalConfig, settings: SolverSettings | None = None) -> EigenResult:
    """Locate the ground-state energy ratio, or certify its absence.

    Scans Delta(eta) upward across the eta window and bisects the first
    sign-change bracket whose converged mismatch passes the acceptance
    tolerance; that root is the deepest-bound level in the window (excited
    levels lie at larger eta). When nothing passes, or the root's outward
    solution has a node below the match point (:func:`_outward_nodes`: the
    ground state is below the window or unresolved), returns found = False
    with the scan trace and a reason string.

    The scan steers on a grid of step ``_STEER_STEP`` (step 3a of the module
    docstring); where the steered search cannot vouch for the production
    grid's result, it runs again on the production grid alone.
    """
    settings = settings or SolverSettings()
    steer = replace(settings, grid_delta=max(settings.grid_delta, _STEER_STEP))
    if steer != settings:
        try:
            result = _search(config, settings, steer)
        except (ValueError, ArithmeticError):  # the package's errors: the production search decides
            result = None
        if result is not None:
            return result
    return _search(config, settings, settings)


def _search(config: PhysicalConfig, settings: SolverSettings, steer: SolverSettings):
    """:func:`solve_ground_state` with the scan's open energies evaluated under ``steer``.

    None, to rerun on the production grid, where ``steer`` is not ``settings``
    and a bracket's production ends do not bracket, or no root is accepted
    after a steering trial.
    """
    trace: list = []
    prev_eta = prev_delta = excited = None
    saw_island = saw_bracket = steered = False
    work = Workspace()
    for points, swept in _scan_trials(config, settings, work, steer):
        trace.extend(points)
        if not swept:
            prev_eta = prev_delta = None
            continue
        ((eta, delta_val),) = points
        steered = True
        if delta_val is None:
            prev_eta = prev_delta = None
            continue
        saw_island = True
        if _brackets(prev_delta, delta_val):
            saw_bracket = True
            ends = (prev_delta, delta_val)
            if steer is not settings:
                ends = [_evaluate_trial(e, config, settings, work)[0] for e in (prev_eta, eta)]
                if not _brackets(*ends):
                    return None
            hit = _bisect_bracket(prev_eta, ends[0], eta, ends[1], config, settings, work)
            if hit is not None:
                eta_star, residual, m_star, grid_star = hit
                if abs(residual) <= settings.mismatch_tol:
                    trace.append((eta_star, residual))
                    nodes = _outward_nodes(eta_star, m_star, config, settings, work)
                    if nodes:
                        excited = (f"the mismatch root at eta = {eta_star!r} has {nodes} node(s) "
                                   "below the match point: an excited level, so the ground state "
                                   "lies below the eta window or the grid does not resolve it")
                        break
                    return EigenResult(
                        found=True,
                        eta_star=eta_star,
                        epsilon_ev=-(1.0 - eta_star) * config.mass,
                        match_rho=float(grid_star.nodes()[m_star]),
                        mismatch_residual=abs(residual),
                        scan_trace=trace,
                        verdict_reason="accepted lowest-eta mismatch root (deepest binding)",
                    )
        prev_eta, prev_delta = eta, delta_val

    if steered and steer is not settings:
        return None
    if not saw_island:
        reason = "no classically-allowed island at any scanned energy (no turning point)"
        residual = math.nan
    else:
        finite = [abs(d) for _, d in trace if d is not None and math.isfinite(d)]
        if not finite:
            raise NonFiniteValue("the mismatch is non-finite at every scanned island")
        reason = excited or ("all mismatch sign changes failed the acceptance tolerance (poles)"
                             if saw_bracket else "mismatch never changes sign across the scan window")
        residual = min(finite)
    return EigenResult(
        found=False,
        eta_star=None,
        epsilon_ev=None,
        match_rho=None,
        mismatch_residual=residual,
        scan_trace=trace,
        verdict_reason=reason,
        status="absent" if excited is None else "excited",
    )


def _scan_one(payload):
    d, ansatz_value, ell, mass, settings = payload
    t0 = time.perf_counter()
    config = PhysicalConfig(dimension=d, ell=ell, mass=mass, ansatz=Ansatz(ansatz_value))
    try:
        result = solve_ground_state(config, settings)
    except Exception as exc:  # per-dimension failures recorded inline
        result = EigenResult(
            found=False,
            eta_star=None,
            epsilon_ev=None,
            match_rho=None,
            mismatch_residual=math.nan,
            scan_trace=[],
            verdict_reason=f"error: {exc!r}",
            error=type(exc),
        )
    return d, replace(result, wall_s=time.perf_counter() - t0)


def dimension_scan(
    d_range: tuple,
    ansatz: Ansatz,
    settings: SolverSettings | None = None,
    ell: int = 0,
    mass: float | None = None,
    workers: int = 1,
):
    """Ground-state search per dimension over an inclusive range.

    Returns [(D, EigenResult), ...] ordered by D, each result carrying the
    seconds its own dimension took (``wall_s``). A dimension whose search
    raised is recorded as not found with the exception class in ``error``.
    Each dimension is an independent computation; with workers > 1 they run
    in separate processes, merged in D order so the output matches a serial
    run.
    """
    d_lo, d_hi = d_range
    if d_lo > d_hi:
        raise ConfigError(f"empty dimension range {d_range!r}")
    settings = settings or SolverSettings()
    mass = ELECTRON_MASS_EV if mass is None else mass
    payloads = [(d, ansatz.value, ell, mass, settings) for d in range(d_lo, d_hi + 1)]
    if workers > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
            results = list(pool.map(_scan_one, payloads))
    else:
        results = [_scan_one(p) for p in payloads]
    return sorted(results, key=lambda item: item[0])


def eigenfunction(config: PhysicalConfig, settings: SolverSettings | None, eta_star: float) -> WaveSolution:
    """Stitched, unit-norm phi_+ at an accepted eigenvalue, with F and G.

    The two propagations are joined at the match node in the variable the
    scheme propagates (the right half is rescaled to agree there), mapped
    from chi to phi by the integrating factor under the canonical scheme,
    normalized to unit discrete L2 norm, and the
    partner component phi_- is recovered from the first-order relation

        phi_- = -[phi_+' - (tau/rho^power - 1/2) phi_+] / (K/rho + tau'/rho^power),

    from which F and G follow. F and G are reported in mass-normalized units.
    """
    settings = settings or SolverSettings()
    coeffs, grid = _trial_setup(eta_star, config, settings)
    m = _match_index(coeffs, grid, settings.min_island_nodes)
    if m is None:
        raise ConfigError(f"no interior turning point at eta = {eta_star!r}; not an eigenvalue")
    nodes = grid.nodes()
    n = grid.n_points
    h = grid.step
    left, right = _propagate_halves(coeffs, grid, m, settings.scheme)
    if right[m] == 0.0:
        raise NonFiniteValue("right propagation vanishes at the match node", eta=eta_star)
    phi = np.empty(n)
    phi[: m + 1] = left[: m + 1]
    phi[m:] = right[m:]
    phi[m:] *= left[m] / right[m]
    if settings.scheme is Scheme.CANONICAL:
        phi *= coeffs.integrating_factor_fn(nodes)  # chi -> phi, once, on the stitched samples
    norm = discrete_l2_norm(phi, h)
    phi = phi / norm
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi = -phi  # fix the overall sign so the principal lobe is positive

    power = coeffs.singular_power
    rho_pow = nodes**power if power != 1 else nodes
    dphi = np.gradient(phi, h)
    denom = coeffs.k_value / nodes + coeffs.tau_prime / rho_pow
    phi_minus = -(dphi - (coeffs.tau / rho_pow - 0.5) * phi) / denom
    f_comp, g_comp = reconstruct_fg(phi, phi_minus, 1.0, coeffs.eta)
    return WaveSolution(grid=grid, phi_plus=phi, f_component=f_comp, g_component=g_comp, norm=norm)
