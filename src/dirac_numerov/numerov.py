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
  p1 enters only through p0 + p2 - p1, from which p' cancels (see S below).

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
swapped. The levels run with no overflow test, and the product is kept
when its four final entries are finite and within 1e100, as every product
of the default solves is. Otherwise it is formed again with each level
tested by one max and one min; a level with an entry past 1e100 is
renormalized matrix by matrix by exact powers of two (the per-matrix
exponents are taken only then), which changes only the common scale of the
three samples.

Every level, with its scratch, is written with ``out=`` into one flat
``space`` of about 4n doubles that the caller may reuse: the solver's swept
trials pass one workspace, so they allocate no grid-sized array.

The kernel takes a leading row axis: R recurrences on one grid, each with
its own match node, are R rows of one product per direction, so the numpy
calls of every level above the first are paid once for all rows. A lone
recurrence is the one-row case. The first level is formed row by row, on
views of each row's own columns, into one (2, 2, R, w) array; a row with
fewer level-1 nodes than w is padded with the identity, the node that a
pair of padding factors (A, C, S) = (1, -1, 0) would give (the factor's
matrix [[1, 1], [0, -1]] squares to the identity exactly). The identity
times a product is that product, so every row is reduced through its own
product's tree, bit for bit. No factor is copied: R rows of at most k
factors take R (4k + 12) doubles, as R lone products do. A row whose
unrenormalized product is not finite, or is past 1e100, is formed again
alone by the renormalizing pass.

Only ``solver.eigenfunction`` and ``scheme_report`` need every node; they
use the sequential sweeps below, which visit the nodes one by one. The
sweeps step the product's own A, C and S in the same difference form,

    C_i (y[i+1] - y[i]) = A_i (y[i] - y[i-1]) - S_i y[i]     (outward),
    A_i (y[i-1] - y[i]) = C_i (y[i] - y[i+1]) - S_i y[i]     (inward),

so B = 12 - 10f and p1 are never formed, and a sweep's samples at the match
nodes are the product's to rounding. They renormalize magnitudes beyond
1e100 by an exact power of two, applied retroactively so the stored samples
remain one globally-scaled solution.
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


def _canonical_factors(weight_values, delta, out=None):
    """f = 1 + (delta^2/12) W, into ``out`` when given: A = f[i-1] and C = f[i+1] at node i."""
    f = np.multiply(delta * delta / 12.0, np.asarray(weight_values, dtype=float), out=out)
    return np.add(1.0, f, out=f)


def _generalized_arrays(half_step, p_prime, w_prev, w_next, delta, out=(None, None), scratch=None):
    """The outer step coefficients p0 and p2 (the recurrence never needs p1).

    p0 = (1 - p delta/2) + (w_prev + p') delta^2/12, p2 likewise with + and
    w_next, from ``half_step`` = p delta/2; into ``out``, via ``scratch``.
    """
    h2_12 = delta * delta / 12.0
    p0 = np.subtract(1.0, half_step, out=out[0])
    p0 += np.multiply(np.add(w_prev, p_prime, out=scratch), h2_12, out=scratch)
    p2 = np.add(1.0, half_step, out=out[1])
    p2 += np.multiply(np.add(w_next, p_prime, out=scratch), h2_12, out=scratch)
    return p0, p2


def _three_point_sum(u, delta, out=None):
    """S_i = (delta^2/12) (u[i-1] + 10 u[i] + u[i+1]) at the interior nodes 1..n-2, into ``out``."""
    u = np.asarray(u, dtype=float)
    s = np.multiply(10.0, u[..., 1:-1], out=out)
    np.add(u[..., :-2], s, out=s)
    np.add(s, u[..., 2:], out=s)
    return np.multiply(delta * delta / 12.0, s, out=s)


# ---------------------------------------------------------------------------
# tight sweep loops (memoryviews of the step arrays: numpy scalar indexing is
# several times slower inside a per-node loop, and a list copy costs memory)


def _sweep(behind, ahead, s, values, start, stop, step):
    """Fill values[start+step .. stop] from ahead_i d[i+step] = behind_i d[i] - S_i y[i].

    d[i] = y[i] - y[i-step] is the difference toward the node stepped from;
    ``behind``, ``ahead`` and ``s`` hold the coefficients at the interior
    nodes (array index = node - 1). values[start - step] and values[start]
    seed it. A sample past the threshold rescales the part already filled:
    the samples stay one scaled solution.
    """
    behind, ahead, s = memoryview(behind), memoryview(ahead), memoryview(s)
    y = values[start]
    d = y - values[start - step]
    overflowed = False
    rescales = 0
    try:
        for i in range(start, stop, step):
            j = i - 1
            d = (behind[j] * d - s[j] * y) / ahead[j]
            y += d
            if y > RESCALE_THRESHOLD or y < -RESCALE_THRESHOLD:
                overflowed = True
                rescales += 1
                y *= _RESCALE_FACTOR
                d *= _RESCALE_FACTOR
                for k in range(i + 1) if step > 0 else range(i, len(values)):
                    values[k] *= _RESCALE_FACTOR
            values[i + step] = y
    except ZeroDivisionError:
        raise SingularCoefficient(f"the step from node {i} divides by zero") from None
    return overflowed, rescales


def _numerov_sweep_lr(lower, upper, s, values, start, stop):
    """Fill values[start+1 .. stop] with C_i (y[i+1] - y[i]) = A_i (y[i] - y[i-1]) - S_i y[i]."""
    return _sweep(lower, upper, s, values, start, stop, 1)


def _numerov_sweep_rl(lower, upper, s, values, start, stop):
    """Fill values[start-1 .. stop] with A_i (y[i-1] - y[i]) = C_i (y[i] - y[i+1]) - S_i y[i]."""
    return _sweep(upper, lower, s, values, start, stop, -1)


# one recurrence for both schemes; the generalized names stay so that
# bench/tracing.py can time each scheme's sweeps apart
_general_sweep_lr = _numerov_sweep_lr
_general_sweep_rl = _numerov_sweep_rl


# ---------------------------------------------------------------------------
# match-node samples from a tree-reduced product of transfer matrices


_IDENTITY = np.array([[[1.0], [0.0]], [[0.0], [1.0]]])  # the level-1 node of a pair of padding factors


def _first_level(lower, upper, s, out, scratch, starts=None):
    """Pairwise products M_0 M_1, M_2 M_3, ... of M_j = [[1 - g, -r], [g, r]], row by row.

    g = s/lower and r = upper/lower. For 1-d arrays of k >= 1 factors returns
    a (2, 2, ceil(k/2)) view of ``out`` whose [i, j] holds entry (i, j) of
    every product, an odd last matrix carried unchanged. For (R, n) arrays
    row j's factors are its columns starts[j]:, taken as views, and the
    result is (2, 2, R, w), w the most nodes of any row; a row's columns
    past its own nodes hold the identity, the node that a pair of padding
    factors (A, C, S) = (1, -1, 0) gives, so the levels above reduce every
    row through its own product's tree. ``scratch`` holds three blocks of
    floor(k/2), k the longest row. g and r of the even (x) and odd (y) factors are divided
    straight into the result's rows, which are then overwritten in place;
    with the signs of -r folded into the sums the entries are bit-identical
    to the general level's products of the factors' rows, which are never
    built.
    """
    if s.ndim == 1:
        size = (s.shape[0] + 1) // 2
        t = out[: 4 * size].reshape(2, 2, size)
        bands = ((lower, upper, s, t),)
    else:
        rows, width = s.shape
        size = (width - int(starts.min()) + 1) // 2
        t = out[: 4 * rows * size].reshape(2, 2, rows, size)
        bands = ((lower[j, i:], upper[j, i:], s[j, i:], t[:, :, j]) for j, i in enumerate(starts.tolist()))
    for lo, up, sj, band in bands:
        k = sj.shape[0]
        half = k // 2
        if half:
            even, odd = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
            (a, b), (c, d) = band[:, :, :half]
            rg, rr, ex = scratch[:half], scratch[half : 2 * half], scratch[2 * half : 3 * half]
            gy = np.divide(sj[odd], lo[odd], out=a)
            ry = np.divide(up[odd], lo[odd], out=b)
            gx = np.divide(sj[even], lo[even], out=c)
            rx = np.divide(up[even], lo[even], out=d)
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
            g, r = sj[-1] / lo[-1], up[-1] / lo[-1]
            band[:, :, half] = (1.0 - g, -r), (g, r)
        if (k + 1) // 2 < size:
            band[:, :, (k + 1) // 2 :] = _IDENTITY
    return t


def product_space(k: int, rows: int = 1) -> int:
    """Doubles of the ``space`` that :func:`_transfer_product` needs for ``rows`` rows of k factors at most."""
    return rows * (4 * k + 12)


def _transfer_product(lower, upper, s, space=None, starts=None):
    """Ordered product M_0 M_1 ... M_(k-1) of M_j = [[1 - g, -r], [g, r]], one per row.

    g = s/lower and r = upper/lower, elementwise. For 1-d arrays returns the
    product's entries (row-major) as a tuple, up to a positive power-of-two
    scale. For (R, n) arrays returns an (R, 4) array of R products, row j's
    over its columns starts[j]:, each bit for bit that row's own product:
    :func:`_first_level` pads a shorter row with the identity, and the
    identity times a product is that product.

    Neighbouring pairs are multiplied level by level, the first by
    :func:`_first_level`; an odd last matrix is carried to the next level
    unchanged. The levels are first multiplied with no overflow test, and a
    row is kept when its four entries are finite and within the threshold: an
    overflow cannot come back finite, since an inf turns into an inf or a nan
    at every later level. A row that is not is formed again alone,
    renormalizing matrix by matrix each level with an entry past the
    threshold; the exact powers of two change only its common scale. The
    levels alternate between the first R (2k + 4) doubles of ``space``
    (allocated when not given; k the longest row) and the next R (k + 4),
    with their scratch after those.
    """
    one = s.ndim == 1
    rows, k = (1, s.shape[0]) if one else (s.shape[0], s.shape[1] - int(starts.min()))
    if k == 0:
        return (1.0, 0.0, 0.0, 1.0) if one else np.tile([1.0, 0.0, 0.0, 1.0], (rows, 1))
    if space is None:
        space = np.empty(product_space(k, rows))
    scratch = space[rows * (3 * k + 8) : rows * (4 * k + 12)]
    for renormalize in (False, True):
        buffers = (space[: rows * (2 * k + 4)], space[rows * (2 * k + 4) : rows * (3 * k + 8)])
        t = _first_level(lower, upper, s, buffers[0], space[rows * (2 * k + 4) :], starts)
        if k == 1 and one:  # a lone factor is no product: it is not renormalized
            return tuple(t.ravel().tolist())
        head = t.shape[:-1]  # (2, 2, R), or (2, 2) for one row
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                # one max and one min per level; the per-matrix exponents only when needed
                if renormalize and (t.max() > RESCALE_THRESHOLD or t.min() < -RESCALE_THRESHOLD):
                    t = np.ldexp(t, -np.frexp(np.abs(t).max(axis=(0, 1)))[1], out=t)
                if t.shape[-1] == 1:
                    break
                half = t.shape[-1] // 2
                x = t[..., 0 : 2 * half : 2]
                y = t[..., 1 : 2 * half : 2]
                size = half + t.shape[-1] % 2
                buffers = buffers[::-1]
                nxt = buffers[0][: 4 * rows * size].reshape(head + (size,))
                prod = nxt[..., :half]
                # entry (i, j) = x[i, 0] y[0, j] + x[i, 1] y[1, j], all four at once
                np.multiply(x[:, 0, None], y[None, 0], out=prod)
                prod += np.multiply(x[:, 1, None], y[None, 1],
                                    out=scratch[: 4 * rows * half].reshape(head + (half,)))
                if half < size:
                    nxt[..., half] = t[..., -1]
                t = nxt
        if not one:
            entries = t.reshape(4, rows).T.copy()
            for j in np.flatnonzero(~(np.abs(entries) <= RESCALE_THRESHOLD).all(axis=1)).tolist():
                start = int(starts[j])  # the test is False for a nan
                entries[j] = _transfer_product(lower[j, start:], upper[j, start:], s[j, start:], space)
            return entries
        entries = tuple(t.ravel().tolist())
        if renormalize or all(abs(v) <= RESCALE_THRESHOLD for v in entries):  # False for a nan
            return entries


def _inward_samples(lower, upper, s, k, y_end, y_next, space):
    """(y[k-1], y[k], y[k+1]) of the solution seeded y[n-1] = y_end, y[n-2] = y_next.

    ``lower``, ``upper`` and ``s`` hold A, C and S at the interior nodes
    1..n-2 (array index = node - 1); A must not vanish at nodes k..n-2. With
    a leading row axis, k holds each row's node and the samples are arrays
    over the rows.
    """
    if s.ndim == 1:
        at = k - 1
        a, b, c, d = _transfer_product(lower[k:], upper[k:], s[k:], space)  # nodes k+1..n-2
    else:
        at = (np.arange(s.shape[0]), k - 1)
        a, b, c, d = _transfer_product(lower, upper, s, space, k).T
    diff = y_end - y_next
    y_k = a * y_next + b * diff
    d_k = c * y_next + d * diff
    g = s[at] / lower[at]
    r = upper[at] / lower[at]
    y_prev = (1.0 - g) * y_k - r * d_k
    return float(y_prev) if s.ndim == 1 else y_prev, y_k, y_k + d_k


def match_samples(lower, upper, s, m, inner, outer, space=None):
    """Outward and inward solutions of the three-term recurrence at nodes m-1, m, m+1.

    The recurrence is A_i y[i-1] = (A_i - S_i + C_i) y[i] - C_i y[i+1];
    ``lower``, ``upper`` and ``s`` hold A, C and S at the interior nodes
    1..n-2 (array index = node - 1). ``inner`` = (y[0], y[1]) seeds the
    outward solution and ``outer`` = (y[n-1], y[n-2]) the inward one.
    ``space``, ``product_space(n - 2)`` doubles apart from the inputs, holds
    the two products' levels in turn.

    Returns (left, right), each (y[m-1], y[m], y[m+1]) up to its own
    positive scale, which log-derivatives do not see. With a leading row
    axis, one recurrence per row and ``m`` an integer array of their match
    nodes, left and right are (R, 3) arrays and ``space`` holds
    ``product_space(k, R)`` doubles, k the most factors of a row's product
    (max(n - 2 - m, m - 1)): each row's samples are bit for bit those of its
    own 1-d call.

    Raises
    ------
    SingularCoefficient
        If a divisor vanishes in a row: A at nodes m..n-2 (inward) or C at
        nodes 1..m (outward), the nodes the sequential sweeps divide at.
    """
    one = s.ndim == 1
    if one:
        _check_divisors(lower, upper, m)
    elif not (lower.all() and upper.all()):  # a block looks at its rows only for a zero
        for j, node in enumerate(m.tolist()):
            _check_divisors(lower[j], upper[j], node)
    n = s.shape[-1] + 2
    right = _inward_samples(lower, upper, s, m, *outer, space)
    left = _inward_samples(upper[..., ::-1], lower[..., ::-1], s[..., ::-1], n - 1 - m, *inner, space)[::-1]
    if one:
        return left, right
    return np.stack(left, axis=1), np.stack(right, axis=1)


def _check_divisors(lower, upper, m):
    """Raise SingularCoefficient where :func:`match_samples` would divide by zero at match node m."""
    for name, coeff, first in (("C", upper[:m], 1), ("A", lower[m - 1 :], m)):
        if not coeff.all():  # a reduction: the zero's node is looked up only when there is one
            node = first + int(np.flatnonzero(coeff == 0.0)[0])
            raise SingularCoefficient(f"step coefficient {name} vanishes at node {node}")


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
    rho exp(-rho/2), transported across [1, 6] at h = 1e-3: unlike the
    Gaussian test, its subdominant partner grows only like exp(+rho/2), so
    decaying transport is well conditioned there.

    Returns a dict with ``orders``, ``errors``, ``agreement`` (max relative
    deviation generalized vs canonical on the Coulomb-like case), and
    ``text``.
    """
    steps = [0.08, 0.04, 0.02, 0.01]

    def canonical(weight, h):
        f = _canonical_factors(weight, h)
        return f[:-2], f[2:], _three_point_sum(weight, h)

    def generalized(p, p_prime, w, h):
        lower, upper = _generalized_arrays(p[1:-1] * h / 2.0, p_prime[1:-1], w[:-2], w[2:], h)
        return lower, upper, _three_point_sum(w, h)

    def outward(seeds, lower, upper, s):
        values = [float(seeds[0]), float(seeds[1])] + [0.0] * s.shape[0]
        _numerov_sweep_lr(lower, upper, s, values, 1, len(values) - 1)
        return np.asarray(values)

    def gaussian_case(h, which):
        a, b = 0.2, 2.2
        n = int(round((b - a) / h)) + 1
        x = np.linspace(a, b, n)
        exact = np.exp(-x * x / 2.0)
        if which == "canonical":
            arrays = canonical(1.0 - x * x, h)
        else:
            p_prime = -1.0 / (x * x)
            lower, upper, s = generalized(1.0 / x, p_prime, 2.0 - x * x, h)
            if which == "generalized_flipped":
                # flipping the p'/5 correction inside p1 adds h^2 p'/3 to
                # S = p0 + p2 - p1, from which p' otherwise cancels
                s = s + h * h * p_prime[1:-1] / 3.0
            arrays = lower, upper, s
        return float(np.max(np.abs(outward(exact[:2], *arrays) - exact)))

    orders = {}
    errors = {}
    for which in ("canonical", "generalized", "generalized_flipped"):
        errs = [gaussian_case(h, which) for h in steps]
        errors[which] = errs
        orders[which] = measured_order(errs)

    h = 1e-3
    x = np.linspace(1.0, 6.0, int(round(5.0 / h)) + 1)
    exact = x * np.exp(-x / 2.0)
    w = -0.25 + 1.5 / x - 1.0 / (x * x)
    y_gen = outward(exact[:2], *generalized(1.0 / x, -1.0 / (x * x), w, h))
    root = np.sqrt(x)  # chi = sqrt(rho) phi solves chi'' + W chi = 0, W = w + 1/(4 rho^2)
    y_can = outward(exact[:2] * root[:2], *canonical(w + 0.25 / (x * x), h)) / root
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
