import hashlib
import math

import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    PhysicalConfig,
    RadialGrid,
    SolverSettings,
    build_coefficients,
    dimensionless_state,
)
from dirac_numerov.analytic import analytic_energy
from dirac_numerov import numerov
from dirac_numerov.errors import SingularCoefficient
from dirac_numerov.coefficients import _weight
from dirac_numerov.numerov import (
    Scheme,
    RESCALE_THRESHOLD,
    _canonical_factors,
    _general_sweep_lr,
    _generalized_arrays,
    _numerov_sweep_lr,
    _numerov_sweep_rl,
    _three_point_sum,
    _transfer_product,
    match_samples,
    measured_order,
    product_space,
    scheme_report,
)
from dirac_numerov.solver import _log_derivative_gap, _match_index, _propagate_halves, _weight_basis


def d3_ground_coeffs():
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    eta = analytic_energy(config).energy_ratio
    state = dimensionless_state(config, eta)
    return build_coefficients(state, config), state


def _general_sweep(p, p_prime, w, h, seeds):
    """Outward generalized sweep over every node from seeds at nodes 0 and 1."""
    p, p_prime, w = (np.asarray(x, dtype=float) for x in (p, p_prime, w))
    p0, p2 = _generalized_arrays(p[1:-1] * h / 2.0, p_prime[1:-1], w[:-2], w[2:], h)
    n = w.shape[0]
    values = [float(seeds[0]), float(seeds[1])] + [0.0] * (n - 2)
    overflowed, rescales = _general_sweep_lr(p0, p2, _three_point_sum(w, h), values, 1, n - 1)
    return np.asarray(values), overflowed, rescales


def _numerov_sweep(weight, h, seeds):
    """Outward canonical sweep over every node from seeds at nodes 0 and 1."""
    f = _canonical_factors(weight, h)
    n = f.shape[0]
    values = [float(seeds[0]), float(seeds[1])] + [0.0] * (n - 2)
    overflowed, rescales = _numerov_sweep_lr(f[:-2], f[2:], _three_point_sum(weight, h), values,
                                             1, n - 1)
    return np.asarray(values), overflowed, rescales


# ---------------------------------------------------------------------------
# the sequential sweeps


def test_general_sweep_free_equation_is_exact():
    # phi'' = 0 (p = w = 0): linear functions advance exactly
    n = 9
    zero = np.zeros(n)
    for a, b in ((0.0, 1.0), (2.0, 1.5), (-1.0, 3.0)):
        values, _, _ = _general_sweep(zero, zero, zero, 0.25, (a, b))
        assert np.array_equal(values, a + (b - a) * np.arange(n))


def test_general_sweep_exponential_fourth_order():
    # w = -k^2 (p = 0) has solution e^(-k rho); global error contracts ~16x per halving
    k = 0.7

    def run(h):
        n = int(round(4.0 / h)) + 1
        rho = np.linspace(1.0, 5.0, n)
        exact = np.exp(-k * rho)
        zero = np.zeros(n)
        values, _, _ = _general_sweep(zero, zero, np.full(n, -k * k), h, exact[:2])
        return abs(values[-1] - exact[-1])

    e1, e2 = run(0.02), run(0.01)
    assert 12.0 < e1 / e2 < 20.0


def test_generalized_step_d3_ground_state_smooth_region():
    # seeding the closed-form phi_+ at rho = 1 must track it to rho = 5
    # within 1e-8 at delta = 1e-3 (second-order transport, small error constant)
    coeffs, state = d3_ground_coeffs()
    gamma = math.sqrt(coeffs.gamma2)
    h = 1e-3
    n = int(round(5.0 / h)) + 1
    rho = np.linspace(1.0, 6.0, n)
    exact = rho**gamma * np.exp(-rho / 2.0)
    fields = coeffs.fields_fn(rho)
    values, _, _ = _general_sweep(fields["p"], fields["p_prime"], fields["w"], h, exact[:2])
    i5 = int(round(4.0 / h))
    assert abs(values[i5] - exact[i5]) / exact[i5] < 1e-8


def test_numerov_sweep_straight_line_and_cosh():
    values, _, _ = _numerov_sweep(np.zeros(3), 0.5, (0.0, 1.0))
    assert values[2] == 2.0

    def run(h):
        n = int(round(2.0 / h)) + 1
        x = np.linspace(0.0, 2.0, n)
        exact = np.cosh(x)
        values, _, _ = _numerov_sweep(np.full(n, -1.0), h, exact[:2])
        return abs(values[-1] - exact[-1])

    e1, e2 = run(0.02), run(0.01)
    assert 12.0 < e1 / e2 < 20.0


def test_numerov_sweep_singular_coefficient():
    h = 0.1
    weight = np.zeros(5)
    weight[2] = -12.0 / (h * h)  # 1 + h^2 W / 12 = 0 at node 2, the first divisor
    with pytest.raises(SingularCoefficient):
        _numerov_sweep(weight, h, (1.0, 1.0))


def test_schemes_agree_on_d3_ground_state():
    # both schemes transported from identical smooth-region seeds agree on
    # phi to 1e-7 (the canonical path is the reference)
    coeffs, state = d3_ground_coeffs()
    gamma = math.sqrt(coeffs.gamma2)
    grid = RadialGrid(rho_min=1.0, rho_max=6.0, n_points=5001)
    h = grid.step
    rho = grid.nodes()
    exact = rho**gamma * np.exp(-rho / 2.0)
    fields = coeffs.fields_fn(rho)
    gen, _, _ = _general_sweep(fields["p"], fields["p_prime"], fields["w"], h, exact[:2])
    factor = coeffs.integrating_factor_fn(rho)
    weight = _weight(coeffs.tau, *_weight_basis(coeffs, grid, Scheme.CANONICAL)[:2])
    chi, _, _ = _numerov_sweep(weight, h, exact[:2] / factor[:2])
    can = chi * factor
    rel = np.max(np.abs(gen - can) / np.abs(exact))
    assert rel < 1e-7
    assert np.max(np.abs(can - exact) / exact) < 2e-9


def test_general_sweep_linearity():
    coeffs, _ = d3_ground_coeffs()
    n = 451
    rho = np.linspace(0.5, 5.0, n)
    fields = coeffs.fields_fn(rho)
    args = fields["p"], fields["p_prime"], fields["w"], rho[1] - rho[0]
    base, _, _ = _general_sweep(*args, (1.0, 1.1))
    # power-of-two scaling commutes exactly with the float recurrence
    scaled, _, _ = _general_sweep(*args, (0.25, 0.275))
    assert np.array_equal(scaled, 0.25 * base)
    general, _, _ = _general_sweep(*args, (1.7, 1.87))
    rel = np.abs(general - 1.7 * base) / np.abs(base)
    assert np.max(rel) < 1e-11  # general factors accumulate rounding only


def test_numerov_sweep_rescaling_keeps_log_derivative():
    # strongly growing solution triggers the 1e100 renormalization
    n = 8001
    rho = np.linspace(0.1, 80.0, n)
    h = rho[1] - rho[0]
    values, overflowed, rescales = _numerov_sweep(np.full(n, -36.0), h, (1e-3, 1.1e-3))
    assert overflowed and rescales >= 1
    assert np.all(np.isfinite(values))
    # e^(6 rho): the centered 3-point estimator gives sinh(6h)/h up to the
    # recurrence's own O(h^4) mode shift, unchanged by rescaling bookkeeping
    log_derivative = (values[6001] - values[5999]) / (2.0 * h * values[6000])
    assert math.isclose(log_derivative, math.sinh(6.0 * h) / h, rel_tol=1e-7)


# ---------------------------------------------------------------------------
# the solver's sweeps from both boundaries


def _d3_halves(grid, m, eta=None):
    """phi samples of the two sweeps to node m at the D = 3 ground state (1/r, canonical)."""
    coeffs, _ = d3_ground_coeffs()
    if eta is not None:
        config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
    left, right = _propagate_halves(coeffs, grid, m, Scheme.CANONICAL)
    factor = coeffs.integrating_factor_fn(grid.nodes())
    return coeffs, np.asarray(left) * factor, np.asarray(right) * factor


def test_propagate_power_law_branch_small_rho():
    # from the chi seeds (0, 1) the left sweep must follow the regular
    # power-law branch; the bound applies where the solution's sub-leading
    # factor exp(-rho/2) deviates from 1 by less than the 1% tolerance
    grid = RadialGrid(rho_min=1e-6, rho_max=2.0, n_points=20001)
    coeffs, left, _ = _d3_halves(grid, 200)
    chi_left, chi_right = _propagate_halves(coeffs, grid, 200, Scheme.CANONICAL)
    assert chi_left[:2] == [0.0, 1.0]
    assert chi_right[-2:] == [math.exp(grid.step / 2.0), 1.0]
    gamma = math.sqrt(coeffs.gamma2)
    rho = grid.nodes()
    window = slice(10, 170)  # rho in [1e-3, 1.7e-2]
    scale = left[10] / rho[10] ** gamma
    rel = np.abs(left[window] / (scale * rho[window] ** gamma) - 1.0)
    assert np.max(rel) < 0.01


def test_propagate_inward_decay():
    grid = RadialGrid(rho_min=1e-6, rho_max=40.0, n_points=40001)
    _, _, right = _d3_halves(grid, 20001)
    vals = right[20000:]
    assert np.all(np.diff(vals) < 0.0)  # monotone decay toward the boundary


def test_direction_consistency_at_converged_eigenvalue(solve_cached):
    # left sweep from the power-law seeds and right sweep from the decaying
    # seeds describe the same ray at the eigenvalue: after matching scales at
    # one node, they agree across the classically allowed region
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=50001)
    _, left, _ = _d3_halves(grid, 11999, result.eta_star)  # left fills nodes 0..12000
    _, _, right = _d3_halves(grid, 2001, result.eta_star)  # right fills nodes 2000..n-1
    overlap = slice(2000, 12000)  # rho in [2, 12]
    ratio = left[overlap] / right[overlap]
    ratio /= ratio[len(ratio) // 2]
    assert np.max(np.abs(ratio - 1.0)) < 1e-6


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
def test_log_derivative_scale_invariance(scheme):
    # each side's samples may carry any positive power-of-two scale: the gap
    # divides it out exactly
    coeffs, _ = d3_ground_coeffs()
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    m = _match_index(coeffs, grid, 3)
    left, right = _propagate_halves(coeffs, grid, m, scheme)
    left, right = left[m - 1 : m + 2], right[m - 1 : m + 2]
    before = _log_derivative_gap(left, right, grid.step)
    after = _log_derivative_gap([y * 2.0**520 for y in left], [y * 2.0**-300 for y in right],
                                grid.step)
    assert math.isfinite(before) and before == after


# ---------------------------------------------------------------------------
# match-node samples from the tree-reduced transfer-matrix product


def _random_recurrence(n, seed):
    """A, C, S at the interior nodes of an n-node grid, each A, C near 1."""
    rng = np.random.default_rng(seed)
    lower = 1.0 + 0.1 * rng.standard_normal(n - 2)
    upper = 1.0 + 0.1 * rng.standard_normal(n - 2)
    s = 0.05 * rng.standard_normal(n - 2)
    return lower, upper, s


def _plain_recurrence(lower, upper, s, inner, outer):
    """Node-by-node outward and inward solutions of A y[i-1] = (A - S + C) y[i] - C y[i+1]."""
    n = s.shape[0] + 2
    middle = lower - s + upper
    left = [inner[0], inner[1]] + [0.0] * (n - 2)
    for i in range(1, n - 1):
        j = i - 1
        left[i + 1] = (middle[j] * left[i] - lower[j] * left[i - 1]) / upper[j]
    right = [0.0] * (n - 2) + [outer[1], outer[0]]
    for i in range(n - 2, 0, -1):
        j = i - 1
        right[i - 1] = (middle[j] * right[i] - upper[j] * right[i + 1]) / lower[j]
    return np.asarray(left), np.asarray(right)


@pytest.mark.parametrize("count", range(10))
def test_transfer_product_matches_sequential_product(count):
    # odd and even lengths, including the empty and the single product
    lower, upper, s = _random_recurrence(count + 2, seed=count)
    expected = np.eye(2)
    for a, c, g in zip(lower, upper, s):
        expected = expected @ np.array([[1.0 - g / a, -c / a], [g / a, c / a]])
    got = np.reshape(_transfer_product(lower, upper, s), (2, 2))
    assert np.allclose(got, expected, rtol=1e-13, atol=1e-15)


def _stacked_transfer_product(lower, upper, s):
    """The product with the four rows of factor matrices stacked and every level general."""
    g = s / lower
    r = upper / lower
    t = np.stack((1.0 - g, -r, g, r))
    while t.shape[1] > 1:
        half = t.shape[1] // 2
        x = t[:, 0 : 2 * half : 2]
        y = t[:, 1 : 2 * half : 2]
        nxt = np.empty((4, half + t.shape[1] % 2))
        nxt[0, :half] = x[0] * y[0] + x[1] * y[2]
        nxt[1, :half] = x[0] * y[1] + x[1] * y[3]
        nxt[2, :half] = x[2] * y[0] + x[3] * y[2]
        nxt[3, :half] = x[2] * y[1] + x[3] * y[3]
        if nxt.shape[1] > half:
            nxt[:, half] = t[:, -1]
        peak = np.abs(nxt).max(axis=0)
        if peak.max() > RESCALE_THRESHOLD:
            nxt = np.ldexp(nxt, -np.frexp(peak)[1])
        t = nxt
    if t.shape[1] == 0:
        return 1.0, 0.0, 0.0, 1.0
    return tuple(float(v) for v in t[:, 0])


def _allocating_first_level(lower, upper, s):
    """The first level as it was before the workspace: every row a fresh array."""
    k = s.shape[0]
    half = k // 2
    even, odd = slice(0, 2 * half, 2), slice(1, 2 * half, 2)
    t = np.empty((2, 2, half + k % 2))
    (a, b), (c, d) = t[:, :, :half]
    gy = np.divide(s[odd], lower[odd], out=a)
    ry = np.divide(upper[odd], lower[odd], out=b)
    gx = np.divide(s[even], lower[even], out=c)
    rx = np.divide(upper[even], lower[even], out=d)
    rg = rx * gy
    rr = rx * ry
    np.multiply(gx, ry, out=d)
    np.subtract(rr, d, out=d)
    ex = 1.0 - gx
    ey = np.subtract(1.0, gy, out=a)
    c *= ey
    c += rg
    a *= ex
    a -= rg
    b *= ex
    np.negative(b, out=b)
    b -= rr
    if k % 2:
        g, r = s[-1] / lower[-1], upper[-1] / lower[-1]
        t[:, :, half] = (1.0 - g, -r), (g, r)
    return t


def _allocating_transfer_product(lower, upper, s):
    """The product as it was before the workspace: a fresh array per level and product."""
    k = s.shape[0]
    if k == 0:
        return 1.0, 0.0, 0.0, 1.0
    t = _allocating_first_level(lower, upper, s)
    if k == 1:
        return tuple(float(v) for v in t.ravel())
    while True:
        if t.max() > RESCALE_THRESHOLD or t.min() < -RESCALE_THRESHOLD:
            t = np.ldexp(t, -np.frexp(np.abs(t).max(axis=(0, 1)))[1])
        if t.shape[2] == 1:
            return tuple(float(v) for v in t.ravel())
        half = t.shape[2] // 2
        x = t[:, :, 0 : 2 * half : 2]
        y = t[:, :, 1 : 2 * half : 2]
        nxt = np.empty((2, 2, half + t.shape[2] % 2))
        prod = nxt[:, :, :half]
        np.multiply(x[:, 0, None], y[None, 0], out=prod)
        prod += x[:, 1, None] * y[None, 1]
        if half < nxt.shape[2]:
            nxt[:, :, half] = t[:, :, -1]
        t = nxt


def _same_bits(got, expected):
    return np.asarray(got, dtype=float).tobytes() == np.asarray(expected, dtype=float).tobytes()


@pytest.mark.parametrize("count", range(41))
def test_transfer_product_is_bit_identical_to_the_stacked_product(count):
    # the first level is formed from g and r with its signs folded in; that
    # must not move a bit, odd and even lengths alike
    lower, upper, s = _random_recurrence(count + 2, seed=100 + count)
    assert _same_bits(_transfer_product(lower, upper, s), _stacked_transfer_product(lower, upper, s))


@pytest.mark.parametrize("count", [2, 3, 7, 40])
def test_transfer_product_renormalizes_like_the_stacked_product(count):
    # factors with g, r ~ 1e59 (A = 1e-60) at the start and every fifth
    # place: first-level entries near 1e118, renormalized matrix by matrix
    lower, upper, s = _random_recurrence(count + 2, seed=300 + count)
    lower[:2] = 1e-60
    lower[5::5] = 1e-60
    assert np.abs(_allocating_first_level(lower, upper, s)).max() > 1e100
    expected = _stacked_transfer_product(lower, upper, s)
    assert _same_bits(_transfer_product(lower, upper, s), expected)
    assert max(abs(v) for v in expected) < 1.0 + 1e-12  # renormalized at the last level


def test_transfer_product_renormalizes_on_a_negative_entry_alone():
    # M_0 M_1 with g_0 = 1/2, r_0 = 0, g_1 = 0, r_1 = 1e101 is
    # [[1/2, -5e100], [1/2, -5e100]]: only the min test sees the overflow
    lower, upper, s = np.ones(2), np.array([0.0, 1e101]), np.array([0.5, 0.0])
    level = _allocating_first_level(lower, upper, s)
    assert level.max() <= RESCALE_THRESHOLD < -level.min()
    got = _transfer_product(lower, upper, s)
    assert _same_bits(got, _stacked_transfer_product(lower, upper, s))
    assert max(abs(v) for v in got) < 1.0


# ---------------------------------------------------------------------------
# the workspace kernel against the allocating one it replaced


def _both_directions(lower, upper, s):
    """The inward arguments and the outward ones (reversed views, A and C swapped)."""
    return (lower, upper, s), (upper[::-1], lower[::-1], s[::-1])


@pytest.mark.parametrize("count", range(41))
def test_workspace_product_is_bit_identical_to_the_allocating_product(count):
    # in a space filled with NaN first, so an entry the kernel failed to write shows
    lower, upper, s = _random_recurrence(count + 2, seed=500 + count)
    space = np.full(product_space(count), np.nan)
    for args in _both_directions(lower, upper, s):
        assert _same_bits(_transfer_product(*args, space), _allocating_transfer_product(*args))


@pytest.mark.parametrize("count", [2, 3, 7, 40])
def test_workspace_product_renormalizes_like_the_allocating_product(count):
    # the divisor is 1e-60 at the start and every fifth place of the
    # direction's own order: first-level entries pass 1e100
    space = np.full(product_space(count), np.nan)
    inward, _ = _both_directions(*_random_recurrence(count + 2, seed=300 + count))
    _, outward = _both_directions(*_random_recurrence(count + 2, seed=300 + count))
    for args in (inward, outward):
        args[0][:2] = 1e-60
        args[0][5::5] = 1e-60
        assert np.abs(_allocating_first_level(*args)).max() > 1e100
        assert _same_bits(_transfer_product(*args, space), _allocating_transfer_product(*args))


def test_workspace_product_renormalizes_on_a_negative_entry_alone():
    lower, upper, s = np.ones(2), np.array([0.0, 1e101]), np.array([0.5, 0.0])
    space = np.full(product_space(2), np.nan)
    assert _same_bits(_transfer_product(lower, upper, s, space),
                      _allocating_transfer_product(lower, upper, s))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the unrenormalized attempt overflows quietly
def test_one_workspace_serves_back_to_back_products():
    # shorter products after longer ones, and a renormalized one among them,
    # in one space: nothing an earlier product left behind reaches a later one
    space = np.full(product_space(40), np.nan)
    for count, seed in ((40, 1), (7, 2), (23, 3), (0, 4), (1, 5), (40, 6), (2, 7), (9, 8)):
        lower, upper, s = _random_recurrence(count + 2, seed=700 + seed)
        if seed == 6:
            lower[::3] = 1e-60
        for args in _both_directions(lower, upper, s):
            assert _same_bits(_transfer_product(*args, space), _allocating_transfer_product(*args))


# ---------------------------------------------------------------------------
# the row axis: a block of products against each row's own product


def _block(rows):
    """(lower, upper, s, starts): row j's factors are its columns starts[j]:, NaN before them.

    The columns before a row's start are never read, so their NaN stays quiet.
    """
    lengths = np.array([row[0].shape[0] for row in rows])
    width = int(lengths.max()) + 3
    block = np.full((3, len(rows), width), np.nan)
    for j, row in enumerate(rows):
        for out, values in zip(block[:, j], row):
            out[width - values.shape[0] :] = values
    return (*block, width - lengths)


def _rows_are_their_own_products(rows, got):
    return all(_same_bits(got[j], _transfer_product(*row)) and
               _same_bits(got[j], _allocating_transfer_product(*row)) for j, row in enumerate(rows))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_row_axis_product_is_each_rows_own_product():
    # ragged lengths 0..40, odd and even, in one block and in a space filled
    # with NaN first: every row is reduced through the tree of its own product
    rows = [_random_recurrence(count + 2, seed=1400 + count) for count in range(41)]
    rows = rows[1::2] + rows[::2]  # the longest row is not the last, nor the first
    lower, upper, s, starts = _block(rows)
    space = np.full(product_space(40, len(rows)), np.nan)
    got = _transfer_product(lower, upper, s, space, starts)
    assert got.shape == (41, 4)
    assert _rows_are_their_own_products(rows, got)
    assert _same_bits(got[[row[0].shape[0] for row in rows].index(0)], (1.0, 0.0, 0.0, 1.0))


def test_row_axis_product_of_lone_factors():
    # a row of one factor is that factor, [[1 - g, -r], [g, r]], carried alone
    # through the identity nodes of the levels above, beside longer rows and an empty one
    rows = [_random_recurrence(3, seed=1450 + j) for j in range(3)]
    rows += [tuple(x[:0] for x in rows[0]), _random_recurrence(6, seed=1453)]
    lower, upper, s, starts = _block(rows)
    got = _transfer_product(lower, upper, s, starts=starts)
    assert _rows_are_their_own_products(rows, got)
    (a, c, g), = zip(*rows[0])
    assert _same_bits(got[0], (1.0 - g / a, -c / a, g / a, c / a))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # padding and overflowing rows stay quiet
@pytest.mark.parametrize("divisor", [1e-60, 1e-200])
def test_row_axis_product_forms_a_row_past_the_threshold_again_alone(divisor):
    # A = 1e-60 at two places carries the row's unrenormalized product to
    # about 1e120 while it stays finite; A = 1e-200 overflows it to inf. Either
    # row is formed again alone by the renormalizing pass, beside finite rows
    # of other lengths that the block keeps
    rows = [_random_recurrence(count + 2, seed=1500 + count) for count in (7, 40, 12, 3)]
    rows[1][0][[0, 20]] = divisor
    plain = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, c, g in zip(*rows[1]):
            plain = plain @ np.array([[1.0 - g / a, -c / a], [g / a, c / a]])
    peak = np.abs(plain).max()
    assert not np.isfinite(peak) if divisor == 1e-200 else 1e100 < peak < math.inf
    lower, upper, s, starts = _block(rows)
    got = _transfer_product(lower, upper, s, starts=starts)
    assert _rows_are_their_own_products(rows, got)
    assert np.all(np.isfinite(got)) and np.abs(got[1]).max() <= 1.0


def test_one_row_product_is_the_parents_result():
    # digest of the 1-d product over lengths 0..40, both directions, some
    # with A = 1e-60 every fifth place, as the product computed it before it
    # took a row axis
    digest = hashlib.sha256()
    for count in range(41):
        lower, upper, s = _random_recurrence(count + 2, seed=1500 + count)
        if count % 4 == 3:
            lower[::5] = 1e-60
        for args in _both_directions(lower, upper, s):
            digest.update(np.asarray(_transfer_product(*args), dtype=float).tobytes())
    assert digest.hexdigest() == "c64de090ba77776a4fa3d200a0740dee22b29b64e50a0c30a567c3feca418ee4"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [40, 41])
def test_row_axis_match_samples_are_each_rows_own(n):
    # rows of one grid with match nodes from 2 to n - 3, one row past the
    # threshold, in a space filled with NaN first
    rows = [_random_recurrence(n, seed=1600 + j) for j in range(5)]
    rows[3][0][::4] = 1e-60
    lower, upper, s = (np.stack(arrays) for arrays in zip(*rows))
    m = np.array([2, n - 3, n // 2, 17, 3])
    inner, outer = (0.0, 0.3), (1.0, 1.2)
    space = np.full(product_space(n - 2, len(rows)), np.nan)
    left, right = match_samples(lower, upper, s, m, inner, outer, space)
    assert left.shape == right.shape == (5, 3)
    for j, row in enumerate(rows):
        assert _same_bits((left[j], right[j]), match_samples(*row, int(m[j]), inner, outer))


def test_row_axis_match_samples_raise_on_any_rows_vanishing_divisor():
    rows = [_random_recurrence(30, seed=1700 + j) for j in range(3)]
    lower, upper, s = (np.stack(arrays) for arrays in zip(*rows))
    upper[1, 4] = 0.0  # C at node 5, below the row's match node
    with pytest.raises(SingularCoefficient, match="C vanishes at node 5"):
        match_samples(lower, upper, s, np.array([20, 10, 20]), (0.0, 1.0), (1.0, 1.0))


def test_row_axis_match_samples_pass_a_zero_that_no_row_divides_by():
    # C at node 26 lies above the first row's match node, where only A is a
    # divisor: each row's own call passes it, and so does the block
    rows = [_random_recurrence(30, seed=1700 + j) for j in range(3)]
    rows[0][1][25] = 0.0
    lower, upper, s = (np.stack(arrays) for arrays in zip(*rows))
    m = np.array([20, 10, 20])
    left, right = match_samples(lower, upper, s, m, (0.0, 1.0), (1.0, 1.0))
    for j, row in enumerate(rows):
        assert _same_bits((left[j], right[j]), match_samples(*row, int(m[j]), (0.0, 1.0), (1.0, 1.0)))


@pytest.mark.parametrize("n", [40, 41])
def test_match_samples_in_a_reused_space_equal_a_fresh_one(n):
    lower, upper, s = _random_recurrence(n, seed=900 + n)
    space = np.full(product_space(n - 2), np.nan)
    for m in (n - 3, 2, n // 2, 17):
        got = match_samples(lower, upper, s, m, (0.0, 0.3), (1.0, 1.2), space)
        assert _same_bits(got, match_samples(lower, upper, s, m, (0.0, 0.3), (1.0, 1.2)))


@pytest.mark.parametrize("n", [40, 41])
def test_match_samples_match_the_plain_recurrence(n):
    lower, upper, s = _random_recurrence(n, seed=n)
    inner, outer = (0.0, 0.3), (1.0, 1.2)
    left, right = _plain_recurrence(lower, upper, s, inner, outer)
    for m in (2, 17, n // 2, n - 3):
        got_left, got_right = match_samples(lower, upper, s, m, inner, outer)
        for got, full in ((got_left, left), (got_right, right)):
            expected = full[m - 1 : m + 2]
            # equal up to one common positive scale
            assert np.allclose(np.asarray(got) * (expected[1] / got[1]), expected, rtol=1e-11)
            assert got[1] * expected[1] > 0.0


def _sweep_both_ways(lower, upper, s, inner, outer):
    """The outward and inward sweeps over every node, with their rescale counts."""
    n = s.shape[0] + 2
    left = [inner[0], inner[1]] + [0.0] * (n - 2)
    _, left_rescales = _numerov_sweep_lr(lower, upper, s, left, 1, n - 1)
    right = [0.0] * (n - 2) + [outer[1], outer[0]]
    _, right_rescales = _numerov_sweep_rl(lower, upper, s, right, n - 2, 0)
    return (np.asarray(left), left_rescales), (np.asarray(right), right_rescales)


def _close_to_plain(got, expected, outward):
    """Within 1e-12 of the plain samples, relative to the largest sample swept so far."""
    scale = np.abs(expected) if outward else np.abs(expected[::-1])
    scale = np.maximum.accumulate(scale)
    if not outward:
        scale = scale[::-1]
    return np.all(np.abs(got - expected) <= 1e-12 * scale)


@pytest.mark.parametrize("n", range(3, 41))
def test_sweeps_match_the_plain_recurrence(n):
    # the difference form steps the same recurrence as the plain three-term
    # form, in both directions; the generalized names are the same sweeps
    lower, upper, s = _random_recurrence(n, seed=1100 + n)
    inner, outer = (0.0, 0.3), (1.0, 1.2)
    left, right = _plain_recurrence(lower, upper, s, inner, outer)
    (got_left, r_left), (got_right, r_right) = _sweep_both_ways(lower, upper, s, inner, outer)
    assert r_left == r_right == 0
    assert _close_to_plain(got_left, left, True)
    assert _close_to_plain(got_right, right, False)
    assert _general_sweep_lr is _numerov_sweep_lr


@pytest.mark.parametrize("n", [10, 23, 40])
def test_sweeps_match_the_plain_recurrence_across_a_rescale(n):
    # a divisor of 1e-60 at two nodes of each direction carries the solution
    # past 1e100, so each sweep rescales what it has filled by 2^-400: undone
    # exactly, the samples are the plain recurrence's
    lower, upper, s = _random_recurrence(n, seed=1200 + n)
    upper[[1, 6]] = 1e-60   # the outward sweep divides by C
    lower[[-2, -7]] = 1e-60  # the inward sweep by A
    inner, outer = (0.0, 0.3), (1.0, 1.2)
    left, right = _plain_recurrence(lower, upper, s, inner, outer)
    assert np.abs(left).max() > 1e100 and np.abs(right).max() > 1e100
    (got_left, r_left), (got_right, r_right) = _sweep_both_ways(lower, upper, s, inner, outer)
    assert r_left >= 1 and r_right >= 1
    assert _close_to_plain(np.ldexp(got_left, 400 * r_left), left, True)
    assert _close_to_plain(np.ldexp(got_right, 400 * r_right), right, False)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the unrenormalized attempt overflows quietly
def test_match_samples_renormalize_past_the_float_range():
    # W = -1 on 200,001 nodes at h = 0.01: the inward solution grows by about
    # e^2000, so the product overflows unless its levels are renormalized; the
    # inward samples must still follow the root mu > 1 of f mu^2 - (12 - 10 f) mu + f = 0
    n, h = 200_001, 0.01
    weight = np.full(n, -1.0)
    f = _canonical_factors(weight, h)
    s = _three_point_sum(weight, h)
    m = 100
    left, right = match_samples(f[:-2], f[2:], s, m, (0.0, 1.0), (1.0, 1.0))
    b = 12.0 - 10.0 * f[0]
    mu = (b + math.sqrt(b * b - 4.0 * f[0] * f[0])) / (2.0 * f[0])
    assert all(math.isfinite(v) for v in (*left, *right))
    assert math.isclose(right[0] / right[1], mu, rel_tol=1e-12)
    assert math.isclose(right[2] / right[1], 1.0 / mu, rel_tol=1e-12)
    # from y[0] = 0 the outward solution is mu^i - mu^-i exactly
    log_mu = math.log(mu)
    assert math.isclose(left[2] / left[1], math.sinh((m + 1) * log_mu) / math.sinh(m * log_mu),
                        rel_tol=1e-12)


def test_match_samples_keep_a_product_that_comes_back_within_the_threshold(monkeypatch):
    # the inward product's factors at nodes m+1, m+2 divide by A = 1e-60, so
    # their first-level product passes 1e100; those at m+3, m+4 (g = 1,
    # r = 1e-30) pair into entries near 1e-30, and the last level is back near
    # 1e90. It is kept unrenormalized, a power of two off the always
    # renormalized product, which the samples' ratios do not see
    n, m = 10, 4
    lower, upper, s = _random_recurrence(n, seed=1300)
    lower[m : m + 2] = 1e-60
    lower[m + 2 :], s[m + 2 :], upper[m + 2 :] = 1.0, 1.0, 1e-30
    inward = lower[m:], upper[m:], s[m:]
    assert np.abs(_allocating_first_level(*inward)).max() > RESCALE_THRESHOLD
    assert 1e80 < max(abs(v) for v in _transfer_product(*inward)) <= RESCALE_THRESHOLD
    inner, outer = (0.0, 0.3), (1.0, 1.2)
    got = match_samples(lower, upper, s, m, inner, outer)
    monkeypatch.setattr(numerov, "_transfer_product",
                        lambda lower, upper, s, space=None: _allocating_transfer_product(lower, upper, s))
    expected = match_samples(lower, upper, s, m, inner, outer)
    assert not _same_bits(got, expected)
    for side, ref in zip(got, expected):
        assert _same_bits((side[0] / side[1], side[2] / side[1]), (ref[0] / ref[1], ref[2] / ref[1]))


def test_match_samples_singular_coefficient_like_the_sweeps():
    # the kernel divides by A = f[i-1] at nodes i = m..n-2 (inward) and by
    # C = f[i+1] at nodes i = 1..m (outward), as the sequential sweeps do, so
    # a vanishing f at nodes 2..n-3 stops both and one at 1, n-2, n-1 neither
    n, h, m = 60, 0.1, 30
    for zero_node, raises in ((1, False), (2, True), (m + 1, True), (n - 3, True),
                              (n - 2, False), (n - 1, False)):
        weight = np.zeros(n)
        weight[zero_node] = -12.0 / (h * h)  # 1 + h^2 W / 12 = 0 there
        f = _canonical_factors(weight, h)
        assert f[zero_node] == 0.0
        s = _three_point_sum(weight, h)

        def sweeps():
            left = [0.0, 1.0] + [0.0] * (n - 2)
            _numerov_sweep_lr(f[:-2], f[2:], s, left, 1, m + 1)
            right = [0.0] * (n - 2) + [1.0, 1.0]
            _numerov_sweep_rl(f[:-2], f[2:], s, right, n - 2, m - 1)

        for run in (sweeps, lambda: match_samples(f[:-2], f[2:], s, m, (0.0, 1.0), (1.0, 1.0))):
            if raises:
                with pytest.raises(SingularCoefficient):
                    run()
            else:
                run()


# ---------------------------------------------------------------------------
# convergence order and the scheme report


def test_fourth_order_signature_canonical():
    # chi'' + (1 - x^2) chi = 0, chi = exp(-x^2/2): three halvings, each
    # contracting the max-norm error by 12..20
    def run(h):
        n = int(round(2.0 / h)) + 1
        x = np.linspace(0.0, 2.0, n)
        exact = np.exp(-x * x / 2.0)
        values, _, _ = _numerov_sweep(1.0 - x * x, h, exact[:2])
        return float(np.max(np.abs(values - exact)))

    errors = [run(h) for h in (0.08, 0.04, 0.02, 0.01)]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(12.0 < r < 20.0 for r in ratios), ratios
    assert 3.5 < measured_order(errors) < 4.5


def test_scheme_report_contents():
    report = scheme_report()
    assert 3.5 < report["orders"]["canonical"] < 4.5
    # the printed generalized coefficients drop to second order when p != 0
    assert 1.5 < report["orders"]["generalized"] < 2.5
    # the sign-flipped variant is not even consistent
    assert report["orders"]["generalized_flipped"] < 1.0
    assert report["agreement"] < 1e-7
    assert "diagnostic" in report["text"]
