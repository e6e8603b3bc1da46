import math

import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    PhysicalConfig,
    RadialGrid,
    coefficient_set_ansatz1,
    dimensionless_state,
)
from dirac_numerov.analytic import analytic_energy
from dirac_numerov.coefficients import CoefficientSet
from dirac_numerov.errors import SingularCoefficient
from dirac_numerov.numerov import (
    Direction,
    Scheme,
    RESCALE_THRESHOLD,
    _canonical_factors,
    _numerov_sweep_lr,
    _numerov_sweep_rl,
    _three_point_sum,
    _transfer_product,
    canonical_step,
    generalized_step,
    match_samples,
    measured_order,
    product_space,
    propagate,
    scheme_report,
)


def make_set(p=None, p_prime=None, w=None, weight=None, factor=None, **kw):
    """Synthetic coefficient bundle for controlled integrator tests."""
    zero = lambda rho: np.zeros_like(np.asarray(rho, dtype=float)) + 0.0
    one = lambda rho: np.ones_like(np.asarray(rho, dtype=float))
    p, p_prime, w = p or zero, p_prime or zero, w or zero
    fields = dict(
        fields_fn=lambda rho: {"p": p(rho), "p_prime": p_prime(rho), "q": one(rho),
                               "s": zero(rho), "v": zero(rho), "w": w(rho)},
        weight_fn=weight or w,
        integrating_factor_fn=factor or one,
        match_level=0.0,
        turning_scale=1.0,
        indicial_exponent=None,
        singular_power=1,
        dimension=3,
        branch="plus",
        k_value=1.0,
        a_const=1.0,
        c_const=0.0,
        lambda_d3=1.0,
        xi=0.001,
        eta=0.5,
    )
    fields.update(kw)
    return CoefficientSet(**fields)


def d3_ground_coeffs():
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    eta = analytic_energy(config).energy_ratio
    state = dimensionless_state(config, eta)
    return coefficient_set_ansatz1(state, config), state


# ---------------------------------------------------------------------------
# scalar steps


def test_generalized_step_free_equation_is_exact():
    coeffs = make_set()
    # phi'' = 0: linear functions advance exactly
    for a, b in ((0.0, 1.0), (2.0, 1.5), (-1.0, 3.0)):
        nxt = generalized_step(a, b, rho=1.0, delta=0.25, coeffs=coeffs)
        assert math.isclose(nxt, 2.0 * b - a, rel_tol=1e-15)


def test_generalized_step_exponential_fourth_order():
    # w = -k^2 (p = 0) has solution e^(-k rho); global error contracts ~16x per halving
    k = 0.7

    def run(h):
        n = int(round(4.0 / h)) + 1
        rho = np.linspace(1.0, 5.0, n)
        coeffs = make_set(w=lambda r: np.full_like(np.asarray(r, float), -k * k))
        exact = np.exp(-k * rho)
        y_prev, y_curr = exact[0], exact[1]
        for i in range(1, n - 1):
            y_prev, y_curr = y_curr, generalized_step(y_prev, y_curr, float(rho[i]), h, coeffs)
        return abs(y_curr - exact[-1])

    e1, e2 = run(0.02), run(0.01)
    assert 12.0 < e1 / e2 < 20.0


def test_generalized_step_d3_ground_state_smooth_region():
    # seeding the closed-form phi_+ at rho = 1 must track it to rho = 5
    # within 1e-8 at delta = 1e-3 (second-order transport, small error constant)
    coeffs, state = d3_ground_coeffs()
    gamma = coeffs.indicial_exponent
    h = 1e-3
    n = int(round(5.0 / h)) + 1
    rho = np.linspace(1.0, 6.0, n)
    exact = rho**gamma * np.exp(-rho / 2.0)
    y_prev, y_curr = float(exact[0]), float(exact[1])
    values = [y_prev, y_curr]
    from dirac_numerov.numerov import _general_sweep_lr, _generalized_arrays

    fields = coeffs.fields_fn(rho)
    p0, p1, p2 = _generalized_arrays(fields["p"], fields["p_prime"], fields["w"], h)
    buf = [0.0] * n
    buf[0], buf[1] = y_prev, y_curr
    _general_sweep_lr(p0.tolist(), p1.tolist(), p2.tolist(), buf, 1, n - 1)
    i5 = int(round(4.0 / h))
    assert abs(buf[i5] - exact[i5]) / exact[i5] < 1e-8


def test_canonical_step_straight_line_and_cosh():
    nxt = canonical_step(0.0, 1.0, rho=1.0, delta=0.5, weight=lambda r: 0.0)
    assert math.isclose(nxt, 2.0, rel_tol=1e-15)

    def run(h):
        n = int(round(2.0 / h)) + 1
        x = np.linspace(0.0, 2.0, n)
        exact = np.cosh(x)
        y_prev, y_curr = float(exact[0]), float(exact[1])
        for i in range(1, n - 1):
            y_prev, y_curr = y_curr, canonical_step(y_prev, y_curr, float(x[i]), h, lambda r: -1.0)
        return abs(y_curr - exact[-1])

    e1, e2 = run(0.02), run(0.01)
    assert 12.0 < e1 / e2 < 20.0


def test_canonical_step_singular_coefficient():
    h = 0.1
    with pytest.raises(SingularCoefficient):
        canonical_step(1.0, 1.0, rho=0.5, delta=h, weight=lambda r: -12.0 / (h * h))


def test_schemes_agree_on_d3_ground_state():
    # both schemes transported from identical smooth-region seeds agree on
    # phi to 1e-7 (the canonical path is the reference)
    coeffs, state = d3_ground_coeffs()
    gamma = coeffs.indicial_exponent
    a, b = 1.0, 6.0
    n = 5001
    grid = RadialGrid(rho_min=a, rho_max=b, n_points=n)
    rho = grid.nodes()
    exact = rho**gamma * np.exp(-rho / 2.0)
    seeds = (float(exact[0]), float(exact[1]))
    gen = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, seeds, Scheme.GENERALIZED)
    can = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, seeds, Scheme.CANONICAL)
    rel = np.max(np.abs(gen.values - can.values) / np.abs(exact))
    assert rel < 1e-7
    assert np.max(np.abs(can.values - exact) / exact) < 2e-9


# ---------------------------------------------------------------------------
# grid propagation


def test_propagate_power_law_branch_small_rho():
    # from seeds (0, delta^gamma) the left sweep must follow the regular
    # power-law branch; the bound applies where the solution's sub-leading
    # factor exp(-rho/2) deviates from 1 by less than the 1% tolerance
    coeffs, state = d3_ground_coeffs()
    gamma = coeffs.indicial_exponent
    grid = RadialGrid(rho_min=1e-6, rho_max=2.0, n_points=20001)
    h = grid.step
    res = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (0.0, h**gamma), Scheme.CANONICAL)
    rho = grid.nodes()
    window = slice(10, 170)  # rho in [1e-3, 1.7e-2]
    scale = res.values[10] / rho[10] ** gamma
    rel = np.abs(res.values[window] / (scale * rho[window] ** gamma) - 1.0)
    assert np.max(rel) < 0.01


def test_propagate_inward_decay():
    coeffs, _ = d3_ground_coeffs()
    grid = RadialGrid(rho_min=1e-6, rho_max=40.0, n_points=40001)
    h = grid.step
    seeds = (math.exp(-40.0 / 2.0), math.exp(-(40.0 - h) / 2.0))
    res = propagate(grid, coeffs, Direction.RIGHT_TO_LEFT, seeds, Scheme.CANONICAL,
                    stop_index=20000)
    vals = res.values[20000:]
    assert np.all(np.diff(vals) < 0.0)  # monotone decay toward the boundary


def test_direction_consistency_at_converged_eigenvalue(solve_cached):
    # left sweep from the power-law seeds and right sweep from the decaying
    # seeds describe the same ray at the eigenvalue: after matching scales at
    # one node, they agree across the classically allowed region
    from dirac_numerov import Ansatz, PhysicalConfig, dimensionless_state

    result = solve_cached(3, Ansatz.ONE_OVER_R)
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    state = dimensionless_state(config, result.eta_star)
    coeffs = coefficient_set_ansatz1(state, config)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=50001)
    h = grid.step
    gamma = coeffs.indicial_exponent
    left = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (0.0, h**gamma),
                     Scheme.CANONICAL, stop_index=12000)
    b = grid.rho_max
    right = propagate(grid, coeffs, Direction.RIGHT_TO_LEFT,
                      (math.exp(-b / 2.0), math.exp(-(b - h) / 2.0)),
                      Scheme.CANONICAL, stop_index=2000)
    overlap = slice(2000, 12000)  # rho in [2, 12]
    ratio = left.values[overlap] / right.values[overlap]
    ratio /= ratio[len(ratio) // 2]
    assert np.max(np.abs(ratio - 1.0)) < 1e-6


def test_propagate_linearity():
    coeffs, _ = d3_ground_coeffs()
    grid = RadialGrid(rho_min=0.5, rho_max=5.0, n_points=451)
    base = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (1.0, 1.1), Scheme.GENERALIZED)
    # power-of-two scaling commutes exactly with the float recurrence
    scaled = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (0.25, 0.275), Scheme.GENERALIZED)
    assert np.array_equal(scaled.values, 0.25 * base.values)
    general = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (1.7, 1.87), Scheme.GENERALIZED)
    rel = np.abs(general.values - 1.7 * base.values) / np.abs(base.values)
    assert np.max(rel) < 1e-11  # general factors accumulate rounding only


def test_propagate_rescaling_keeps_log_derivative():
    # strongly growing solution triggers the 1e100 renormalization
    grow = make_set(weight=lambda r: np.full_like(np.asarray(r, float), -36.0))
    grid = RadialGrid(rho_min=0.1, rho_max=80.0, n_points=8001)
    res = propagate(grid, grow, Direction.LEFT_TO_RIGHT, (1e-3, 1.1e-3), Scheme.CANONICAL)
    assert res.overflowed and res.rescale_count >= 1
    assert np.all(np.isfinite(res.values))
    # e^(6 rho): the centered 3-point estimator gives sinh(6h)/h up to the
    # recurrence's own O(h^4) mode shift, unchanged by rescaling bookkeeping
    h = grid.step
    assert math.isclose(res.log_derivative_at(6000), math.sinh(6.0 * h) / h, rel_tol=1e-7)


def test_log_derivative_scale_invariance():
    coeffs, _ = d3_ground_coeffs()
    grid = RadialGrid(rho_min=0.5, rho_max=5.0, n_points=451)
    res = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (1.0, 1.05), Scheme.CANONICAL)
    before = res.log_derivative_at(200)
    res.values *= 2.0**520
    after = res.log_derivative_at(200)
    assert math.isclose(before, after, rel_tol=1e-12)


def test_propagate_equals_repeated_steps():
    coeffs, _ = d3_ground_coeffs()
    grid = RadialGrid(rho_min=1.0, rho_max=1.15, n_points=16)
    h = grid.step
    res = propagate(grid, coeffs, Direction.LEFT_TO_RIGHT, (1.0, 0.995), Scheme.GENERALIZED)
    y_prev, y_curr = 1.0, 0.995
    rho = grid.nodes()
    for i in range(1, 15):
        y_prev, y_curr = y_curr, generalized_step(y_prev, y_curr, float(rho[i]), h, coeffs)
        assert math.isclose(res.values[i + 1], y_curr, rel_tol=1e-12)


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
            fl = f.tolist()
            left = [0.0, 1.0] + [0.0] * (n - 2)
            _numerov_sweep_lr(fl, left, 1, m + 1)
            right = [0.0] * (n - 2) + [1.0, 1.0]
            _numerov_sweep_rl(fl, right, n - 2, m - 1)

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
        from dirac_numerov.numerov import _canonical_factors, _numerov_sweep_lr

        f = _canonical_factors(1.0 - x * x, h).tolist()
        buf = [0.0] * n
        buf[0], buf[1] = float(exact[0]), float(exact[1])
        _numerov_sweep_lr(f, buf, 1, n - 1)
        return float(np.max(np.abs(np.asarray(buf) - exact)))

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
