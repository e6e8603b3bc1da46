"""Fourth-order three-term propagation of the radial equation on a uniform grid.

Two interchangeable discretizations are provided:

* ``Scheme.GENERALIZED`` -- the three-term recurrence for
  phi'' + p phi' + w phi = 0 applied directly to phi, with step coefficients

      p0 = 1 - p h/2 + [w(x-h) + p'] h^2/12
      p1 = 2 {1 - [w(x) - p'/5] 5 h^2/12}
      p2 = 1 + p h/2 + [w(x+h) + p'] h^2/12.

  It is consistent for any p and fourth-order accurate when p == 0 (where it
  coincides with classical Numerov); with a first-derivative term present its
  truncation error degrades to second order. ``scheme_report`` measures this
  empirically, including the transcription-ambiguous sign of the p'/5 term.

* ``Scheme.CANONICAL`` -- classical Numerov on the first-derivative-free form
  chi'' + W chi = 0, W = w - p^2/4 - p'/2, with phi = factor * chi through the
  closed-form integrating factor. This is the production path. It is fourth
  order where the solution is smooth (``scheme_report`` measures this on a
  smooth test function), but not on the D = 3 ground state: the regular
  solution chi ~ rho^(gamma+1/2) has high derivatives that blow up at the
  origin, and eta* converges at second order there (errors against the
  closed form of 6.6e-11, 1.6e-11, 4.2e-12 and 1.2e-12 at steps of 4, 2, 1
  and 0.5 x 10^-3). For D >= 5 the 1/r error is flat at about 1e-14
  (rounding). Eigenvalues from the two paths are cross-checked in the
  acceptance suite.

Eigenvalue searches compare log-derivatives of the propagated variable (chi
under the canonical scheme, phi under the generalized one; the two gaps share
every zero and sign, see ``solver._log_derivative_gap``). These are invariant
under the overall scale of a propagated solution, so seeds may be supplied in
any convenient normalization, and they need each solution only at the match
nodes m-1, m, m+1. ``match_samples`` therefore propagates without visiting
the nodes one by one: writing each step A_i y[i-1] = B_i y[i] - C_i y[i+1]
in the difference form

    (y[i-1], y[i] - y[i-1]) = [[1 - S/A, -C/A], [S/A, C/A]] (y[i], y[i+1] - y[i]),
    S_i = A_i - B_i + C_i = (h^2/12) (u[i-1] + 10 u[i] + u[i+1]),

it multiplies the 2x2 transfer matrices pairwise in about log2(n) numpy
levels (a tree reduction). S comes from the weight u directly (u = W,
A = f[i-1], C = f[i+1] for the canonical scheme; u = w, A = p0, C = p2 for
the generalized one, where p0 + p2 - p1 equals that sum exactly), so the
small difference A - B + C is never formed by cancellation. In a forbidden
region S < 0 and the matrices share a checkerboard sign pattern, so their
products add terms of one sign. The first level is formed from g = S/A and
r = C/A alone, divided straight into its output, with the signs of the
entries -r folded into its sums; the four rows of factor matrices are never
stored, and its entries equal those of the general level bit for bit. The
outward direction is the same kernel on reversed arrays with A and C
swapped. Each level is tested for overflow with one max and one min; a
level with an entry past 1e100 is renormalized matrix by matrix by exact
powers of two (the per-matrix exponents are taken only then), which changes
only the common scale of the three samples.

Every level, with its scratch, is written with ``out=`` into one flat
``space`` of about 4n doubles that the caller may reuse: the solver's swept
trials pass one workspace, so they allocate no grid-sized array.

Only ``solver.eigenfunction`` and ``scheme_report`` need every node; they
use the sequential sweeps below, which visit the nodes one by one. They
renormalize magnitudes beyond 1e100 by an exact power of two, applied
retroactively so the stored samples remain one globally-scaled solution.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import SingularCoefficient

RESCALE_THRESHOLD = 1e100
# power-of-two factor keeps rescaling exact in binary floating point
_RESCALE_FACTOR = math.ldexp(1.0, -400)


class Scheme(Enum):
    GENERALIZED = "generalized"
    CANONICAL = "canonical"


# ---------------------------------------------------------------------------
# step coefficients


def _generalized_p02(half_step, p_prime, w_prev, w_next, delta, out=(None, None), scratch=None):
    """The outer step coefficients p0 and p2 (the transfer product needs no p1).

    p0 = (1 - p delta/2) + (w_prev + p') delta^2/12, p2 likewise with + and
    w_next, from ``half_step`` = p delta/2; into ``out``, via ``scratch``.
    """
    h2_12 = delta * delta / 12.0
    p0 = np.subtract(1.0, half_step, out=out[0])
    p0 += np.multiply(np.add(w_prev, p_prime, out=scratch), h2_12, out=scratch)
    p2 = np.add(1.0, half_step, out=out[1])
    p2 += np.multiply(np.add(w_next, p_prime, out=scratch), h2_12, out=scratch)
    return p0, p2


# ---------------------------------------------------------------------------
# tight sweep loops (python lists; numpy scalar indexing is several times
# slower inside a per-node loop)


def _sweep(prev, here, nxt, values, start, stop, step):
    """Fill values[start+step .. stop]: y[i+step] = (here_i y_i - prev_i y[i-step]) / nxt_i.

    values[start - step] and values[start] seed it. A sample past the threshold
    rescales the part already filled: the samples stay one scaled solution.
    """
    y0 = values[start - step]
    y1 = values[start]
    overflowed = False
    rescales = 0
    try:
        for i in range(start, stop, step):
            y2 = (here[i] * y1 - prev[i] * y0) / nxt[i]
            if y2 > RESCALE_THRESHOLD or y2 < -RESCALE_THRESHOLD:
                overflowed = True
                rescales += 1
                y1 *= _RESCALE_FACTOR
                y2 *= _RESCALE_FACTOR
                for j in range(i + 1) if step > 0 else range(i, len(values)):
                    values[j] *= _RESCALE_FACTOR
            values[i + step] = y2
            y0, y1 = y1, y2
    except ZeroDivisionError:
        raise SingularCoefficient(f"the step from node {i} divides by zero") from None
    return overflowed, rescales


def _numerov_sweep_lr(f, values, start, stop):
    """Fill values[start+1 .. stop] with y[i+1] = ((12-10 f_i) y_i - f_{i-1} y_{i-1}) / f_{i+1}."""
    below, above = [0.0] + f[:-1], f[1:] + [0.0]
    return _sweep(below, [12.0 - 10.0 * v for v in f], above, values, start, stop, 1)


def _numerov_sweep_rl(f, values, start, stop):
    """Fill values[start-1 .. stop] with y[i-1] = ((12-10 f_i) y_i - f_{i+1} y_{i+1}) / f_{i-1}."""
    below, above = [0.0] + f[:-1], f[1:] + [0.0]
    return _sweep(above, [12.0 - 10.0 * v for v in f], below, values, start, stop, -1)


def _general_sweep_lr(p0, p1, p2, values, start, stop):
    """Fill values[start+1 .. stop] with y[i+1] = (p1_i y_i - p0_i y_{i-1}) / p2_i."""
    return _sweep(p0, p1, p2, values, start, stop, 1)


def _general_sweep_rl(p0, p1, p2, values, start, stop):
    """Fill values[start-1 .. stop] with y[i-1] = (p1_i y_i - p2_i y_{i+1}) / p0_i."""
    return _sweep(p2, p1, p0, values, start, stop, -1)


def _canonical_factors(weight_values, delta, out=None):
    """f = 1 + (delta^2/12) W, into ``out`` when given."""
    f = np.multiply(delta * delta / 12.0, np.asarray(weight_values, dtype=float), out=out)
    return np.add(1.0, f, out=f)


def _generalized_arrays(p, p_prime, w, delta):
    """Vectorized p0/p1/p2 over all nodes (edge entries are fillers, never stepped from)."""
    p, p_prime, w = (np.asarray(x, dtype=float) for x in (p, p_prime, w))
    w_prev = np.concatenate(([w[0]], w[:-1]))
    w_next = np.concatenate((w[1:], [w[-1]]))
    p0, p2 = _generalized_p02(p * delta / 2.0, p_prime, w_prev, w_next, delta)
    p1 = 2.0 * (1.0 - (w - p_prime / 5.0) * 5.0 * (delta * delta / 12.0))
    return p0, p1, p2


# ---------------------------------------------------------------------------
# match-node samples from a tree-reduced product of transfer matrices


def _three_point_sum(u, delta, out=None):
    """S_i = (delta^2/12) (u[i-1] + 10 u[i] + u[i+1]) at the interior nodes 1..n-2, into ``out``."""
    u = np.asarray(u, dtype=float)
    s = np.multiply(10.0, u[1:-1], out=out)
    np.add(u[:-2], s, out=s)
    np.add(s, u[2:], out=s)
    return np.multiply(delta * delta / 12.0, s, out=s)


def _first_level(lower, upper, s, out, scratch):
    """Pairwise products M_0 M_1, M_2 M_3, ... of M_j = [[1 - g, -r], [g, r]].

    g = s/lower and r = upper/lower (k >= 1 of each). Returns a
    (2, 2, ceil(k/2)) view of ``out`` whose [i, j] holds entry (i, j) of
    every product, an odd last matrix carried unchanged; ``scratch`` holds
    three rows of floor(k/2). g and r of the even (x) and odd (y) factors are
    divided straight into the result's rows, which are then overwritten in
    place; with the signs of -r folded into the sums the entries are
    bit-identical to the general level's products of the factors' rows,
    which are never built.
    """
    k = s.shape[0]
    half = k // 2
    even, odd = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
    t = out[: 4 * (half + k % 2)].reshape(2, 2, half + k % 2)
    (a, b), (c, d) = t[:, :, :half]
    rg, rr, ex = scratch[:half], scratch[half : 2 * half], scratch[2 * half : 3 * half]
    gy = np.divide(s[odd], lower[odd], out=a)
    ry = np.divide(upper[odd], lower[odd], out=b)
    gx = np.divide(s[even], lower[even], out=c)
    rx = np.divide(upper[even], lower[even], out=d)
    np.multiply(rx, gy, out=rg)
    np.multiply(rx, ry, out=rr)
    np.multiply(gx, ry, out=d)
    np.subtract(rr, d, out=d)      # d = g_x (-r_y) + r_x r_y
    np.subtract(1.0, gx, out=ex)
    ey = np.subtract(1.0, gy, out=a)
    c *= ey
    c += rg                        # c = g_x (1 - g_y) + r_x g_y
    a *= ex
    a -= rg                        # a = (1 - g_x)(1 - g_y) + (-r_x) g_y
    b *= ex
    np.negative(b, out=b)
    b -= rr                        # b = (1 - g_x)(-r_y) + (-r_x) r_y
    if k % 2:
        g, r = s[-1] / lower[-1], upper[-1] / lower[-1]
        t[:, :, half] = (1.0 - g, -r), (g, r)
    return t


def product_space(k: int) -> int:
    """Doubles of the ``space`` that :func:`_transfer_product` needs for k factors."""
    return 4 * k + 12


def _transfer_product(lower, upper, s, space=None):
    """Ordered product M_0 M_1 ... M_(k-1) of M_j = [[1 - g, -r], [g, r]].

    g = s/lower and r = upper/lower, elementwise. Returns the product's
    entries (row-major) up to a positive power-of-two scale. Neighbouring
    pairs are multiplied level by level, the first by :func:`_first_level`;
    an odd last matrix is carried to the next level unchanged. A level with
    an entry past the threshold is renormalized matrix by matrix. The levels
    alternate between the first 2k + 4 doubles of ``space`` (allocated when
    not given) and the next k + 4, with their scratch after those.
    """
    k = s.shape[0]
    if k == 0:
        return 1.0, 0.0, 0.0, 1.0
    if space is None:
        space = np.empty(product_space(k))
    buffers = (space[: 2 * k + 4], space[2 * k + 4 : 3 * k + 8])
    scratch = space[3 * k + 8 : 4 * k + 12]
    t = _first_level(lower, upper, s, buffers[0], space[2 * k + 4 :])
    if k == 1:  # a lone factor is no product: it is not renormalized
        return tuple(float(v) for v in t.ravel())
    while True:
        # one max and one min per level; the per-matrix exponents only when needed
        if t.max() > RESCALE_THRESHOLD or t.min() < -RESCALE_THRESHOLD:
            t = np.ldexp(t, -np.frexp(np.abs(t).max(axis=(0, 1)))[1], out=t)
        if t.shape[2] == 1:
            return tuple(float(v) for v in t.ravel())
        half = t.shape[2] // 2
        x = t[:, :, 0 : 2 * half : 2]
        y = t[:, :, 1 : 2 * half : 2]
        size = half + t.shape[2] % 2
        buffers = buffers[::-1]
        nxt = buffers[0][: 4 * size].reshape(2, 2, size)
        prod = nxt[:, :, :half]
        # entry (i, j) = x[i, 0] y[0, j] + x[i, 1] y[1, j], all four at once
        np.multiply(x[:, 0, None], y[None, 0], out=prod)
        prod += np.multiply(x[:, 1, None], y[None, 1], out=scratch[: 4 * half].reshape(2, 2, half))
        if half < size:
            nxt[:, :, half] = t[:, :, -1]
        t = nxt


def _inward_samples(lower, upper, s, k, y_end, y_next, space):
    """(y[k-1], y[k], y[k+1]) of the solution seeded y[n-1] = y_end, y[n-2] = y_next.

    ``lower``, ``upper`` and ``s`` hold A, C and S at the interior nodes
    1..n-2 (array index = node - 1); A must not vanish at nodes k..n-2.
    """
    a, b, c, d = _transfer_product(lower[k:], upper[k:], s[k:], space)  # nodes k+1..n-2
    diff = y_end - y_next
    y_k = a * y_next + b * diff
    d_k = c * y_next + d * diff
    g = s[k - 1] / lower[k - 1]
    r = upper[k - 1] / lower[k - 1]
    return float((1.0 - g) * y_k - r * d_k), y_k, y_k + d_k


def match_samples(lower, upper, s, m, inner, outer, space=None):
    """Outward and inward solutions of the three-term recurrence at nodes m-1, m, m+1.

    The recurrence is A_i y[i-1] = (A_i - S_i + C_i) y[i] - C_i y[i+1];
    ``lower``, ``upper`` and ``s`` hold A, C and S at the interior nodes
    1..n-2 (array index = node - 1). ``inner`` = (y[0], y[1]) seeds the
    outward solution and ``outer`` = (y[n-1], y[n-2]) the inward one.
    ``space``, ``product_space(n - 2)`` doubles apart from the inputs, holds
    the two products' levels in turn.

    Returns (left, right), each (y[m-1], y[m], y[m+1]) up to its own
    positive scale, which log-derivatives do not see.

    Raises
    ------
    SingularCoefficient
        If a divisor vanishes: A at nodes m..n-2 (inward) or C at nodes
        1..m (outward), the nodes the sequential sweeps divide at.
    """
    for name, coeff, first in (("C", upper[:m], 1), ("A", lower[m - 1 :], m)):
        if not coeff.all():  # a reduction: the zero's node is looked up only when there is one
            node = first + int(np.flatnonzero(coeff == 0.0)[0])
            raise SingularCoefficient(f"step coefficient {name} vanishes at node {node}")
    n = s.shape[0] + 2
    right = _inward_samples(lower, upper, s, m, *outer, space)
    left = _inward_samples(upper[::-1], lower[::-1], s[::-1], n - 1 - m, *inner, space)[::-1]
    return left, right


def measured_order(errors) -> float:
    """Mean convergence order implied by errors at successive step halvings."""
    errs = np.asarray(errors, dtype=float)
    ratios = errs[:-1] / errs[1:]
    return float(np.mean(np.log2(ratios)))


def scheme_report() -> dict:
    """Empirical cross-validation of the two step schemes.

    Convergence orders come from y = exp(-x^2/2), which solves both
    chi'' + (1 - x^2) chi = 0 (first-derivative-free) and
    y'' + y'/x + (2 - x^2) y = 0; the variant with the sign of the p'/5
    correction in p1 flipped is run as well, and turns out inconsistent (its
    error does not shrink with the step), settling the printed sign as the
    only viable reading.

    The agreement gate uses the production-like structure
    y'' + y'/rho + [-1/4 + (3/2)/rho - 1/rho^2] y = 0 with exact solution
    rho exp(-rho/2), transported across [1, 14] at h = 1e-3: unlike the
    Gaussian test, its subdominant partner grows only like exp(+rho/2), so
    decaying transport is well conditioned there.

    Returns a dict with ``orders``, ``errors``, ``agreement`` (max relative
    deviation generalized vs canonical on the Coulomb-like case), and
    ``text``.
    """
    steps = [0.08, 0.04, 0.02, 0.01]

    def gaussian_case(h, which):
        a, b = 0.2, 2.2
        n = int(round((b - a) / h)) + 1
        x = np.linspace(a, b, n)
        exact = np.exp(-x * x / 2.0)
        values = [0.0] * n
        values[0], values[1] = float(exact[0]), float(exact[1])
        if which == "canonical":
            f = _canonical_factors(1.0 - x * x, h).tolist()
            _numerov_sweep_lr(f, values, 1, n - 1)
        else:
            p = 1.0 / x
            pp = -1.0 / (x * x)
            w = 2.0 - x * x
            p0, p1g, p2 = _generalized_arrays(p, pp, w, h)
            if which == "generalized_flipped":
                # flip only the p'/5 correction inside p1
                _, p1g, _ = _generalized_arrays(p, -pp, w, h)
            p0, p1g, p2 = p0.tolist(), p1g.tolist(), p2.tolist()
            _general_sweep_lr(p0, p1g, p2, values, 1, n - 1)
        y = np.asarray(values)
        return float(np.max(np.abs(y - exact)))

    orders = {}
    errors = {}
    for which in ("canonical", "generalized", "generalized_flipped"):
        errs = [gaussian_case(h, which) for h in steps]
        errors[which] = errs
        orders[which] = measured_order(errs)

    def coulomb_case(which):
        h = 1e-3
        a, b = 1.0, 6.0
        n = int(round((b - a) / h)) + 1
        x = np.linspace(a, b, n)
        exact = x * np.exp(-x / 2.0)
        values = [0.0] * n
        values[0], values[1] = float(exact[0]), float(exact[1])
        p = 1.0 / x
        pp = -1.0 / (x * x)
        w = -0.25 + 1.5 / x - 1.0 / (x * x)
        if which == "canonical":
            f = _canonical_factors(w + 0.25 / (x * x), h).tolist()  # W = w + 1/(4 rho^2)
            chi = [0.0] * n
            chi[0] = values[0] * math.sqrt(x[0])
            chi[1] = values[1] * math.sqrt(x[1])
            _numerov_sweep_lr(f, chi, 1, n - 1)
            return np.asarray(chi) / np.sqrt(x), exact
        p0, p1g, p2 = _generalized_arrays(p, pp, w, h)
        _general_sweep_lr(p0.tolist(), p1g.tolist(), p2.tolist(), values, 1, n - 1)
        return np.asarray(values), exact

    y_gen, exact = coulomb_case("generalized")
    y_can, _ = coulomb_case("canonical")
    agreement = float(np.max(np.abs(y_gen - y_can) / np.abs(exact)))

    lines = [
        "integrator scheme diagnostic",
        "  order probe y = exp(-x^2/2) on [0.2, 2.2], steps "
        + ", ".join(str(h) for h in steps),
        f"  canonical (first-derivative-free) measured order: {orders['canonical']:.2f}",
        f"  generalized (printed three-term coefficients)  : {orders['generalized']:.2f}"
        " (degrades from 4th order when a first-derivative term is present)",
        f"  generalized with p'/5 sign flipped             : {orders['generalized_flipped']:.2f}"
        " (inconsistent; the printed sign is the only viable reading)",
        "  agreement probe rho exp(-rho/2) on [1, 6] at h = 1e-3:",
        f"  generalized vs canonical max relative deviation: {agreement:.2e}",
        "  production eigenvalue searches default to the canonical path; the",
        "  generalized path is accepted where the two agree (<= 1e-7 on",
        "  validation solutions, <= 1e-8 on eigenvalue ratios).",
    ]
    return {"orders": orders, "errors": errors, "agreement": agreement, "text": "\n".join(lines)}
