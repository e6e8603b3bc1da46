import math
import resource
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from dirac_numerov import (
    Ansatz,
    KSign,
    PhysicalConfig,
    RadialGrid,
    SolverSettings,
    analytic_energy,
    analytic_ground_wavefunction_d3,
    build_coefficients,
    dimension_scan,
    dimensionless_state,
    eigenfunction,
    k_value,
    mismatch_scan,
    reconstruct_fg,
    solve_ground_state,
)
from dirac_numerov import coefficients, core, numerov, solver
from dirac_numerov.errors import ConfigError, EtaOutOfRange, NonFiniteValue, SingularCoefficient
from dirac_numerov.numerov import Scheme
from dirac_numerov.solver import (
    _allowed_radius_bound,
    _field_basis,
    _gauss_allowed,
    _island_basis,
    _island_match_index,
    _log_derivative_gap,
    _match_index,
    _mismatch_at_match,
    _polynomial_tail,
    _propagate_halves,
    _scan_etas,
    _screen_islands,
    _seeds,
    _step_arrays,
    _trial_row,
    _weight_basis,
)
from test_numerov import _allocating_transfer_product


def _coeffs_at(d, ansatz, eta, **cfg_kw):
    config = PhysicalConfig(dimension=d, ell=0, ansatz=ansatz, **cfg_kw)
    state = dimensionless_state(config, eta)
    return build_coefficients(state, config), config


# ---------------------------------------------------------------------------
# match-point location


def test_match_point_d3_ground_state():
    eta = analytic_energy(PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)).energy_ratio
    coeffs, _ = _coeffs_at(3, Ansatz.ONE_OVER_R, eta)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=50001)
    m = _match_index(coeffs, grid, 3)
    assert m is not None
    rho_m = float(grid.nodes()[m])
    assert 0.0 < rho_m < 50.0
    # dense-grid oracle: outermost crossing of the smooth effective potential
    dense = np.linspace(1e-6, 50.0, 1_000_000)
    gap = coeffs.tau - coeffs.fields_fn(dense)["v"]
    crossings = dense[1:][np.diff(np.sign(gap)) != 0]
    assert abs(rho_m - crossings[-1]) < 2 * grid.step
    # the turning radius of rho/4 - 1/2 + gamma^2/rho at level tau in closed form
    tau, gamma2 = coeffs.tau, coeffs.k_value**2 - coeffs.xi**2
    outer = 2.0 * (tau + 0.5) + 2.0 * math.sqrt((tau + 0.5) ** 2 - gamma2)
    assert abs(rho_m - outer) < 2 * grid.step


def test_match_point_none_when_level_below_well():
    coeffs, _ = _coeffs_at(3, Ansatz.ONE_OVER_R, 0.9)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=5001)
    assert _match_index(coeffs, grid, 3) is None
    # constant level far above/below any crossing
    assert _match_index(replace(coeffs, tau=-50.0), grid, 3) is None


def test_match_point_none_for_gauss_law_d5():
    # eta = 0.999: the only classically-allowed nodes hug the origin
    # (fall-to-center funnel); there is no interior island to match at
    coeffs, _ = _coeffs_at(5, Ansatz.GENERALIZED, 0.999)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=50001)
    assert _match_index(coeffs, grid, 3) is None
    nodes = grid.nodes()
    gap = coeffs.tau - coeffs.fields_fn(nodes)["v"]
    allowed = np.flatnonzero(gap > 0.0)
    assert allowed.size > 0 and allowed[0] == 0  # funnel attached to the cutoff
    assert np.all(gap[nodes >= 0.05] < 0.0)  # outer region everywhere forbidden


def test_island_rule_requires_interior_island():
    pos = np.zeros(100, dtype=bool)
    assert _island_match_index(pos, 3) is None
    pos[:10] = True  # origin-attached run only
    assert _island_match_index(pos, 3) is None
    pos[40:50] = True  # interior island
    assert _island_match_index(pos, 3) == 50
    pos[90:] = True  # boundary-attached run is ignored, island still wins
    assert _island_match_index(pos, 3) == 50
    assert _island_match_index(pos[:60], 20) is None  # too thin for the requested width


def test_fast_island_paths_agree_with_generic():
    # the division-free certification path must reproduce the literal
    # level - V sign analysis node for node
    rng = np.random.default_rng(31)
    grid = RadialGrid(rho_min=1e-6, rho_max=60.0, n_points=20001)
    for _ in range(40):
        d = int(rng.integers(3, 11))
        eta = float(rng.uniform(0.3, 0.999999))
        ansatz = Ansatz.GENERALIZED if rng.uniform() < 0.7 else Ansatz.ONE_OVER_R
        if ansatz is Ansatz.GENERALIZED and d == 2:
            continue
        coeffs, _ = _coeffs_at(d, ansatz, eta)
        fast = _match_index(coeffs, grid, 3)
        generic = _island_match_index(
            (coeffs.tau - coeffs.fields_fn(grid.nodes())["v"]) > 0.0, 3
        )
        assert fast == generic, (d, eta, ansatz)


_BASE = SolverSettings()
CRITERION_4_VARIANTS = {
    "default": _BASE,
    "double-resolution": SolverSettings(scan_points=2 * _BASE.scan_points),
    "wide-window": SolverSettings(eta_window=(0.01, 1.0 - 1e-12)),
    "refined-grid": SolverSettings(grid_a=_BASE.grid_a / 2.0, grid_b_scale=2.0,
                                   grid_delta=_BASE.grid_delta / 2.0),
}


def _screened(config, settings):
    """(eta, settled) of every scan energy, screened in one call as the scan does."""
    etas = _scan_etas(settings.eta_window, settings.scan_points).tolist()
    return zip(etas, _screen_islands(config, settings, etas))


@pytest.mark.parametrize("d", range(3, 11))
def test_prefix_island_test_matches_full_grid(d):
    # every scan energy of acceptance criterion 4's variants; at D = 3 the
    # window reaches grids of millions of nodes, which are skipped. The bound
    # must hold at each energy, not only leave the match node unchanged: past
    # it a D >= 4 funnel would only widen the prefix to the whole grid. At
    # D = 3, the 1/r problem (c = 0), the literal level > V flags take the
    # place of H. An energy the screen settles must have no interior island
    # on the full grid
    config = PhysicalConfig(dimension=d, ell=0, ansatz=Ansatz.GENERALIZED)
    compared = 0
    v_grid = v = None  # V of the last grid at D = 3, where it holds no energy
    for name, settings in CRITERION_4_VARIANTS.items():
        settled_count = 0
        for eta, settled in _screened(config, settings):
            settled_count += settled
            coeffs = build_coefficients(dimensionless_state(config, eta), config)
            try:
                grid = settings.resolve_grid(coeffs.turning_scale)
            except ConfigError:
                continue
            if grid.n_points > 300_000:
                continue
            if d == 3:
                if grid != v_grid:
                    v_grid, v = grid, coeffs.fields_fn(grid.nodes())["v"]
                allowed = coeffs.tau - v > 0.0
            else:
                allowed = _gauss_allowed(grid, grid.n_points, *_trial_row(coeffs))
                cut = np.searchsorted(grid.nodes(), _allowed_radius_bound(*_trial_row(coeffs)),
                                      side="right")
                assert not allowed[cut:].any(), (name, eta)
            full = _island_match_index(allowed, settings.min_island_nodes)
            assert _match_index(coeffs, grid, settings.min_island_nodes) == full, (name, eta)
            if settled:
                assert full is None, (name, eta)
                if d == 3:  # closed form: not even the funnel is allowed
                    assert not allowed.any(), (name, eta)
            compared += 1
        if d >= 4:
            assert settled_count >= 0.99 * settings.scan_points, name
    assert compared >= 7000


def _gauss_law_d3_row(coeffs):
    """A D = 3 record rebuilt with the Gauss law's own scalars: c = K lam^(1/2), lam^0 = 1."""
    lam = (1.0 - coeffs.eta) * (1.0 + coeffs.eta)
    return replace(coeffs, c_const=coeffs.k_value * lam**0.5, lambda_d3=1.0,
                   tau=coeffs.eta * coeffs.a_const * lam**-0.5)


def test_prefix_island_test_matches_full_grid_in_bisection(monkeypatch):
    # the D = 3 Gauss-law solve bisects inside a real island, as the 1/r
    # problem. At every energy it evaluates, including each bisection step,
    # its index and that of the record rebuilt with c > 0, which runs the
    # prefix test (bound, prefix, widening) on the island, must equal the
    # index of the full-grid flags; every energy the screen settles must
    # have no island
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.GENERALIZED)
    checked = []
    prefixed = []

    def full_grid_index(coeffs, grid, min_nodes):
        flags = _gauss_allowed(grid, grid.n_points, *_trial_row(coeffs))
        return _island_match_index(flags, min_nodes)

    def checking(coeffs, grid, min_nodes):
        m = _match_index(coeffs, grid, min_nodes)
        assert m == full_grid_index(coeffs, grid, min_nodes), coeffs.eta
        row = _gauss_law_d3_row(coeffs)
        assert _match_index(row, grid, min_nodes) == full_grid_index(row, grid, min_nodes), coeffs.eta
        prefixed.append(solver._prefix_stop(grid, _allowed_radius_bound(*_trial_row(row)))
                        < grid.n_points)
        checked.append(m)
        return m

    def checking_screen(config, settings, etas):
        settled = _screen_islands(config, settings, etas)
        for eta in (e for e, done in zip(etas, settled) if done):
            coeffs = build_coefficients(dimensionless_state(config, eta), config)
            grid = settings.resolve_grid(coeffs.turning_scale)
            assert full_grid_index(coeffs, grid, settings.min_island_nodes) is None, eta
            checked.append(None)
        return settled

    monkeypatch.setattr(solver, "_match_index", checking)
    monkeypatch.setattr(solver, "_screen_islands", checking_screen)
    result = solve_ground_state(config)
    assert result.found
    assert len(checked) > len(result.scan_trace)  # bisection energies are included
    assert sum(m is not None for m in checked) > 100
    assert all(prefixed)


def test_d3_gauss_law_solve_builds_no_island_basis():
    # the Gauss law at D = 3 is the 1/r problem: its island test compares tau
    # with the cached V and builds none of the prefix arrays
    _island_basis.cache_clear()
    result = solve_ground_state(PhysicalConfig(dimension=3, ansatz=Ansatz.GENERALIZED))
    assert result.found
    assert _island_basis.cache_info().misses == 0


def _polynomial(coeffs, rho):
    """P(rho) = H rho^(D-2) term by term, and the sum of the terms' magnitudes."""
    e = coeffs.dimension - 3
    c, kk = coeffs.c_const, coeffs.k_value**2
    terms = [-0.25 * c * rho ** (3 * e + 2), 0.5 * c * rho ** (3 * e + 1), -c * kk * rho ** (3 * e)]
    terms += [coef * rho**k for coef, k in _polynomial_tail(*_trial_row(coeffs))]
    return sum(terms), sum(np.abs(t) for t in terms)


@pytest.mark.parametrize("d", range(3, 11))
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_sign_polynomial_matches_island_basis(d, ell):
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=50001)
    index = np.unique(np.geomspace(1, grid.n_points - 1, 200).astype(int))
    rho = grid.nodes()[index]
    for eta in (0.05, 0.5, 0.9, 0.999, 0.999999, 1.0 - 1e-9):
        config = PhysicalConfig(dimension=d, ell=ell, ansatz=Ansatz.GENERALIZED)
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
        r34, s0r3, ur3, s0m, u = (arr[index] for arr in
                                  _island_basis(grid, d, coeffs.k_value, coeffs.a_const,
                                                grid.n_points))
        c, a, tau = coeffs.c_const, coeffs.a_const, coeffs.tau
        a2l = a * a * coeffs.lambda_d3
        h = c * (tau * r34 - s0r3 + a2l * ur3) + a * (tau + s0m + a2l * u)
        p, scale = _polynomial(coeffs, rho)
        power = rho ** (d - 2)
        assert np.all(np.abs(p / power - h) <= 1e-12 * scale / power), (eta,)


@hypothesis_settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(eta=st.floats(min_value=0.01, max_value=1.0 - 1e-12),
       d=st.integers(min_value=4, max_value=10),
       ell=st.integers(min_value=0, max_value=2))
def test_no_allowed_node_past_the_bound(eta, d, ell):
    config = PhysicalConfig(dimension=d, ell=ell, ansatz=Ansatz.GENERALIZED)
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    past = grid.nodes() > _allowed_radius_bound(*_trial_row(coeffs))
    assert past.any()
    assert not _gauss_allowed(grid, grid.n_points, *_trial_row(coeffs))[past].any()
    # the same from the literal level - V, node by node
    gap = coeffs.tau - coeffs.fields_fn(grid.nodes()[past])["v"]
    assert np.all(gap <= 0.0)


def _leading_part_bound(d, kval, a, c, tau, lam):
    """The bound from (1 - 1/(4K^2)) rho^2/4 alone, the reference :func:`_allowed_radius_bound` tightens."""
    lead = 0.25 * c * (1.0 - 0.25 / (kval * kval))
    top = 3 * (d - 3) + 2
    positive = [(coef, k) for coef, k in _polynomial_tail(d, kval, a, c, tau, lam) if coef > 0.0]
    return max((len(positive) * coef / lead) ** (1.0 / (top - k)) for coef, k in positive)


@pytest.mark.parametrize("d", range(4, 11))
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_the_bound_holds_against_an_exact_polynomial(d, ell):
    # P, from the trial's float scalars, evaluated in 40 digits at R and at
    # log-spaced radii from R to the grid's end, at the window's ends and at
    # every 100th scan energy; R never exceeds the reference by over one ulp
    mpmath = pytest.importorskip("mpmath")
    config = PhysicalConfig(dimension=d, ell=ell, ansatz=Ansatz.GENERALIZED)
    settings = SolverSettings()
    e = d - 3
    with mpmath.workdps(40):
        for eta in [*_scan_etas(settings.eta_window, settings.scan_points)[::100].tolist(),
                    settings.eta_window[1]]:
            coeffs = build_coefficients(dimensionless_state(config, eta), config)
            row = _trial_row(coeffs)
            bound = _allowed_radius_bound(*row)
            assert bound <= np.nextafter(_leading_part_bound(*row), np.inf), eta
            kval, a, c, tau, lam = (mpmath.mpf(x) for x in row[1:])
            tail = _polynomial_tail(d, kval, a, c, tau, lam)
            b = settings.resolve_grid(coeffs.turning_scale).rho_max
            for rho in (mpmath.mpf(x) for x in np.geomspace(bound, b, 40)):
                p = -c * rho ** (3 * e) * (rho * rho / 4 - rho / 2 + kval * kval)
                assert p + sum(coef * rho**k for coef, k in tail) < 0, (eta, rho)


@pytest.mark.parametrize("d", range(3, 10))
def test_screen_settles_no_one_over_r_energy_with_an_allowed_node(d):
    # the closed-form minimum of V against the literal level > V on the full
    # grid of every energy it settles; V holds no energy, so once per grid
    config = PhysicalConfig(dimension=d, ell=0, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings()
    v_grid = v = None
    settled_count = 0
    for eta, settled in _screened(config, settings):
        if not settled:
            continue
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
        grid = settings.resolve_grid(coeffs.turning_scale)
        if grid != v_grid:
            v_grid, v = grid, coeffs.fields_fn(grid.nodes())["v"]
        assert not (coeffs.tau > v).any(), eta
        settled_count += 1
    assert settled_count >= 800


@pytest.mark.parametrize("name", ["default", "refined-grid"])
def test_screen_block_flags_equal_the_trial_flags(monkeypatch, name):
    # every row of every block H at D = 4..10 against the one-row flags of
    # its trial's own coefficient set, over the trial's prefix and the block's
    settings = CRITERION_4_VARIANTS[name]
    blocks = []
    original = solver._gauss_allowed

    def recording(grid, stop, *scalars):
        flags = original(grid, stop, *scalars)
        blocks.append((grid, stop, scalars, flags.copy()))
        return flags

    monkeypatch.setattr(solver, "_gauss_allowed", recording)
    compared = 0
    for d in range(4, 11):
        config = PhysicalConfig(dimension=d, ell=0, ansatz=Ansatz.GENERALIZED)
        trials = {}
        for eta in _scan_etas(settings.eta_window, settings.scan_points).tolist():
            coeffs = build_coefficients(dimensionless_state(config, eta), config)
            trials[_trial_row(coeffs)[3:]] = coeffs
        blocks.clear()
        for _ in _screened(config, settings):
            pass
        for grid, width, (_, _, _, c, tau, lam), flags in blocks:
            assert flags.shape == (len(c), width)
            assert flags.size <= solver._BLOCK_DOUBLES or len(c) == 1
            for r in range(len(c)):
                coeffs = trials[(float(c[r, 0]), float(tau[r, 0]), float(lam[r, 0]))]
                assert settings.resolve_grid(coeffs.turning_scale) == grid
                row = _trial_row(coeffs)
                stop = solver._prefix_stop(grid, _allowed_radius_bound(*row))
                assert stop <= width
                assert np.array_equal(flags[r, :stop], original(grid, stop, *row))
                assert np.array_equal(flags[r], original(grid, width, *row))
                compared += 1
    assert compared == 7 * settings.scan_points


def test_screen_settles_a_row_only_on_a_funnel_within_its_own_prefix(monkeypatch):
    # no scan at D >= 4 meets an island, so the block rule is checked on
    # made-up flags: four energies of one block, each with its own prefix
    # (at D = 6, whose prefixes near eta = 1 are still longer than ten nodes)
    config = PhysicalConfig(dimension=6, ansatz=Ansatz.GENERALIZED)
    settings = SolverSettings()
    etas = [0.5, 0.99, 0.999, 0.9999]
    stops = []
    for eta in etas:
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
        grid = settings.resolve_grid(coeffs.turning_scale)
        stops.append(solver._prefix_stop(grid, _allowed_radius_bound(*_trial_row(coeffs))))
    width = max(stops)
    assert stops == sorted(stops, reverse=True) and 10 < stops[-1] < width - 2

    def made_up(grid, stop, *scalars):
        assert stop == width
        flags = np.zeros((len(etas), width), dtype=bool)
        flags[0, :2] = True  # the funnel only: settled
        flags[1, 5:8] = True  # an interior island: left to the trial
        flags[2, : stops[2]] = True  # allowed up to its prefix's end: left to the trial
        flags[3, :2] = flags[3, stops[3] + 1] = True  # allowed past its prefix only: settled
        return flags

    monkeypatch.setattr(solver, "_gauss_allowed", made_up)
    assert _screen_islands(config, settings, etas).tolist() == [True, False, False, True]


_CLOSED_FORM_CASES = [(d, Ansatz.ONE_OVER_R) for d in range(3, 10)] + [(3, Ansatz.GENERALIZED)]


@hypothesis_settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(case=st.sampled_from(_CLOSED_FORM_CASES),
       ell=st.integers(min_value=0, max_value=2),
       offset=st.floats(min_value=-1e-6, max_value=1e-6))
def test_closed_form_screen_settles_no_allowed_node(case, ell, offset):
    # eta just below and just above the energy whose tau is V's minimum
    # gamma - 1/2: tau = xi eta / sqrt(1 - eta^2) there (A = xi at D = 3)
    d, ansatz = case
    config = PhysicalConfig(dimension=d, ell=ell, ansatz=ansatz)
    xi = coefficients.coupling_xi(config)
    kval = k_value(config)
    tau = (math.sqrt(kval * kval - xi * xi) - 0.5) * (1.0 + offset)
    eta = tau / math.hypot(xi, tau)
    settings = SolverSettings()
    (settled,) = _screen_islands(config, settings, [eta])
    if offset < -1e-8:
        assert settled
    if settled:
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
        grid = settings.resolve_grid(coeffs.turning_scale)
        assert not (coeffs.tau > coeffs.fields_fn(grid.nodes())["v"]).any()
        if ansatz is Ansatz.GENERALIZED:
            assert not _gauss_allowed(grid, grid.n_points, *_trial_row(coeffs)).any()


_C0_CONFIGS = ([PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R) for d in range(3, 10)]
               + [PhysicalConfig(dimension=3, ell=ell, ansatz=Ansatz.GENERALIZED) for ell in range(3)])


@pytest.mark.parametrize("settings", [_BASE, SolverSettings(grid_delta=solver._STEER_STEP),
                                      CRITERION_4_VARIANTS["refined-grid"]],
                         ids=["default", "steering", "refined-grid"])
def test_closed_form_island_equals_the_dense_test(settings):
    # the nodes between the turning radii against the literal tau > V on
    # every node, at every scan energy where c = 0. The refined grid's
    # energies past the default scan's largest grid (700,001 nodes) are left
    # out: the default grid holds the same energies
    v_grid = v = None
    compared = islands = 0
    for config in _C0_CONFIGS:
        for eta in _scan_etas(settings.eta_window, settings.scan_points).tolist():
            coeffs = build_coefficients(dimensionless_state(config, eta), config)
            grid = settings.resolve_grid(coeffs.turning_scale)
            if grid.n_points > 700_001:
                continue
            if (grid, coeffs.gamma2) != v_grid:
                v_grid, v = (grid, coeffs.gamma2), coefficients.ansatz1_potential(grid.nodes(),
                                                                                  coeffs.gamma2)
            allowed = coeffs.tau > v
            for min_nodes in (1, 3, 10):
                dense = _island_match_index(allowed, min_nodes)
                assert _match_index(coeffs, grid, min_nodes) == dense, (config, eta, min_nodes)
                islands += dense is not None
            compared += 1
    assert compared >= 16_000 and islands >= 18_000


def test_closed_form_island_allocates_no_grid_sized_array():
    coeffs, _ = _coeffs_at(3, Ansatz.ONE_OVER_R, 0.99997)
    grid = _BASE.resolve_grid(coeffs.turning_scale)
    m = _match_index(coeffs, grid, 3)  # the grid's nodes are cached from here on
    tracemalloc.start()
    try:
        again = _match_index(coeffs, grid, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert m is not None and again == m
    assert peak < 1024, peak


def _per_energy_trials(config, settings, work, steer):
    """The plain loop the screen and the blocks replace: one lone trial per scan energy, under ``steer``."""
    for eta in _scan_etas(settings.eta_window, settings.scan_points).tolist():
        yield [(eta, solver._evaluate_trial(eta, config, steer, work)[0])], True


def _outcome(result):
    return (result.found, result.eta_star, repr(result.mismatch_residual), result.verdict_reason,
            result.scan_trace)


def _block_log(monkeypatch):
    """(etas, outcomes, config, steer, budget) of every :func:`solver._evaluate_block` call of more than one energy."""
    calls = []
    evaluate = solver._evaluate_block

    def logged(etas, config, settings, steer, work=None):
        outcomes = evaluate(etas, config, settings, steer, work)
        if len(etas) > 1 and not isinstance(outcomes[0], Exception):
            coeffs, _ = solver._trial_setup(etas[0], config, steer)
            budget = solver._block_budget(coeffs, settings, solver.Workspace())
            calls.append((etas, list(outcomes), config, steer, budget))
        return outcomes

    monkeypatch.setattr(solver, "_evaluate_block", logged)
    return calls


def _next_row(etas, outcomes, config, steer):
    """(grid, match node) of the energy after a block."""
    coeffs, grid = solver._trial_setup(etas[len(outcomes)], config, steer)
    return grid, solver._match_index(coeffs, grid, steer.min_island_nodes)


def _fits(nodes, grid, steer, budget):
    """Whether rows with these match nodes fit in ``budget`` doubles as one block."""
    widest = max(solver._row_factors(grid.n_points, m) for m in nodes)
    return solver._trial_doubles(grid.n_points, steer.scheme, len(nodes), widest) <= budget


def _grid_switch(etas, outcomes, config, steer, budget):
    # a block cut short by the next open energy's grid, inside the window
    return len(outcomes) < len(etas) and _next_row(etas, outcomes, config, steer)[0] != outcomes[0][2]


def _final_block(etas, outcomes, config, steer, budget):
    # the window's last open energies, with room for another row like its first
    nodes = [m for _, m, _ in outcomes]
    return 1 < len(outcomes) == len(etas) and _fits(nodes + nodes[:1], outcomes[0][2], steer, budget)


def _row_cap(etas, outcomes, config, steer, budget):
    # a full block: the next row, on the same grid, would not fit beside its rows
    if not 1 < len(outcomes) < len(etas):
        return False
    grid, m = _next_row(etas, outcomes, config, steer)
    return grid == outcomes[0][2] and not _fits([m for _, m, _ in outcomes] + [m], grid, steer, budget)


_IDENTITY_CASES = (
    [(Ansatz.ONE_OVER_R, d, Scheme.CANONICAL, {}, None) for d in range(3, 10)]
    + [(Ansatz.GENERALIZED, d, Scheme.CANONICAL, {}, None) for d in range(3, 11)]
    + [(ansatz, 3, Scheme.GENERALIZED, {}, None) for ansatz in Ansatz]
    # windows of 2, 256 and 257 energies
    + [(ansatz, d, Scheme.CANONICAL, {"scan_points": points}, None)
       for points in (2, 256, 257) for ansatz in Ansatz
       for d in (3, 5)]
    # blocks of rows ended by a grid switch, by the window's end and by the row cap
    + [(Ansatz.ONE_OVER_R, 9, Scheme.CANONICAL, {}, _grid_switch),
       (Ansatz.ONE_OVER_R, 3, Scheme.CANONICAL, {"scan_points": 257, "eta_window": (0.5, 0.99997)},
        _final_block),
       (Ansatz.ONE_OVER_R, 3, Scheme.GENERALIZED, {"grid_delta": 5e-4}, _row_cap)]
)


@pytest.mark.parametrize("ansatz, d, scheme, settings_kw, block_case", _IDENTITY_CASES)
def test_screened_scan_equals_the_per_energy_loop(monkeypatch, solve_cached, ansatz, d, scheme,
                                                  settings_kw, block_case):
    # solve_ground_state and mismatch_scan against the same calls with the
    # plain per-energy loop in place of the screened scan and its blocks of
    # rows; a full-window mismatch_scan through real islands sweeps ~1,000
    # trials, so that one is compared on the island-free Gauss law only
    config = PhysicalConfig(dimension=d, ansatz=ansatz)
    settings = SolverSettings(scheme=scheme, **settings_kw)
    if block_case is None:
        screened = solve_cached(d, ansatz, scheme, **settings_kw)
    else:
        with monkeypatch.context() as patch:
            blocks = _block_log(patch)
            screened = solve_ground_state(config, settings)
        assert any(block_case(*block) for block in blocks)
    compare_scan = "scan_points" in settings_kw or (ansatz is Ansatz.GENERALIZED and d >= 4)
    scan = mismatch_scan(config, settings) if compare_scan else None
    monkeypatch.setattr(solver, "_scan_trials", _per_energy_trials)
    assert _outcome(screened) == _outcome(solve_ground_state(config, settings))
    if compare_scan:
        assert scan == mismatch_scan(config, settings)


# ---------------------------------------------------------------------------
# deferred errors: a row's error is raised when the scan reaches it


def _fault_at(monkeypatch, config, eta, kind):
    """Make the trial at ``eta`` raise ``kind`` wherever it is evaluated, alone or as a row.

    ConfigError from its setup; SingularCoefficient from a C that vanishes at
    node 4 of its step arrays; NonFiniteValue from an S of NaN. Returns the
    list of energies where the fault fired.
    """
    fired = []
    setup, steps = solver._trial_setup, solver._step_arrays
    level = setup(eta, config, SolverSettings())[0].tau

    def faulty_setup(e, config, settings):
        if e == eta and kind is ConfigError:
            fired.append(e)
            raise ConfigError(f"no grid at eta = {e!r}")
        return setup(e, config, settings)

    def faulty_steps(coeffs, grid, scheme, work, tail, tau=None):
        lower, upper, s, rest = steps(coeffs, grid, scheme, work, tail, tau)
        hit = np.flatnonzero(np.atleast_1d(coeffs.tau if tau is None else tau[:, 0]) == level)
        if hit.size:
            fired.append(eta)
            if kind is SingularCoefficient:
                np.atleast_2d(upper)[hit, 3] = 0.0
            elif kind is NonFiniteValue:
                np.atleast_2d(s)[hit] = np.nan
        return lower, upper, s, rest

    monkeypatch.setattr(solver, "_trial_setup", faulty_setup)
    monkeypatch.setattr(solver, "_step_arrays", faulty_steps)
    return fired


_STEERING = SolverSettings(grid_delta=solver._STEER_STEP)
_FAULTS = (ConfigError, SingularCoefficient, NonFiniteValue)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a NaN row stays quiet
@pytest.mark.parametrize("kind", _FAULTS)
def test_a_row_that_raises_after_the_accepted_root_never_raises(monkeypatch, solve_cached, kind):
    # the D = 3 scan's last block holds open energies past the bracket's
    # upper end; the one right after it is evaluated, or its setup tried,
    # and the search ends at the same root
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    expected = solve_cached(3, Ansatz.ONE_OVER_R)
    etas = _scan_etas(_BASE.eta_window, _BASE.scan_points).tolist()
    upper_end = expected.scan_trace[-2][0]
    fired = _fault_at(monkeypatch, config, etas[etas.index(upper_end) + 1], kind)
    assert _outcome(solve_ground_state(config)) == _outcome(expected)
    assert fired


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", _FAULTS)
def test_a_row_that_raises_before_the_root_raises_when_the_scan_reaches_it(monkeypatch,
                                                                           solve_cached, kind):
    # the third row of a block: the scan yields every energy before it, its
    # own and its block's earlier rows among them, and then raises its error
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    trace = solve_cached(3, Ansatz.ONE_OVER_R).scan_trace
    swept = [eta for eta, delta in trace if delta is not None]
    target = swept[12]
    fired = _fault_at(monkeypatch, config, target, kind)
    blocks = _block_log(monkeypatch)
    seen = []
    with pytest.raises(kind) as caught:
        for points, _ in solver._scan_trials(config, _BASE, solver.Workspace(), _STEERING):
            seen.extend(points)
    assert fired
    assert seen == trace[: [eta for eta, _ in trace].index(target)]
    if kind is NonFiniteValue:
        assert caught.value.eta == target
    if kind is not ConfigError:  # a setup error ends the block before it
        assert any(target in etas[1 : len(outcomes)] for etas, outcomes, *_ in blocks)


# ---------------------------------------------------------------------------
# mismatch


def test_mismatch_small_at_analytic_eigenvalue():
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    eta = analytic_energy(config).energy_ratio
    delta = solver._evaluate_trial(eta, config, SolverSettings(scheme=Scheme.CANONICAL))[0]
    assert delta is not None
    assert abs(delta) <= 1e-6
    # the second-order generalized path carries a larger truncation bias but
    # must stay within an order of magnitude of it
    delta_gen = solver._evaluate_trial(eta, config, SolverSettings(scheme=Scheme.GENERALIZED))[0]
    assert abs(delta_gen) <= 1e-5


def test_mismatch_large_away_from_eigenvalue():
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    # tau = 0.75 sits between the well bottom (~0.5) and the ground level (~1):
    # a turning point exists but no eigenvalue is nearby
    xi = dimensionless_state(config, 0.5).xi
    eta = math.sqrt(1.0 / (1.0 + (xi / 0.75) ** 2))
    delta = solver._evaluate_trial(eta, config, SolverSettings())[0]
    assert delta is not None
    assert abs(delta) > 1e-3


def test_mismatch_no_turning_point_cases():
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    # eta far below the classically-allowed regime: the level misses the well
    assert solver._evaluate_trial(0.9, config, SolverSettings())[0] is None
    config5 = PhysicalConfig(dimension=5, ansatz=Ansatz.GENERALIZED)
    for eta in (0.6, 0.99, 0.99999):
        assert solver._evaluate_trial(eta, config5, SolverSettings())[0] is None
    with pytest.raises(EtaOutOfRange):
        solver._evaluate_trial(1.0, config, SolverSettings())[0]


def test_a_trial_computes_its_scalars_once(monkeypatch):
    # the record takes the scalars of the state: one _energy_scalars call per
    # trial, wherever a module binds it, with an island and without
    original = core._energy_scalars
    calls = []
    for module in (core, coefficients, solver):
        if hasattr(module, "_energy_scalars"):
            monkeypatch.setattr(module, "_energy_scalars",
                                lambda *args: calls.append(args) or original(*args))
    for d, ansatz, eta, swept in ((3, Ansatz.ONE_OVER_R, 0.99997, True),
                                  (3, Ansatz.GENERALIZED, 0.99997, True),
                                  (5, Ansatz.GENERALIZED, 0.99, False)):
        calls.clear()
        _, m, _ = solver._evaluate_trial(eta, PhysicalConfig(dimension=d, ansatz=ansatz),
                                         SolverSettings())
        assert (m is not None) == swept
        assert len(calls) == 1, (d, ansatz)


def test_energy_scalars_of_an_array_equal_those_of_each_float_bit_for_bit():
    # the screen's one array call and each trial's float call: every scan
    # energy of criterion 4's variants, energies at and below zero, and
    # |eta| -> 1, where lam^(D-3) must stay quiet
    extra = [-1.0 + 2.0**-53, -0.999999, -0.5, -1e-300, 0.0, 1e-300, 1.0 - 2.0**-53]
    etas = np.unique(np.concatenate(
        [_scan_etas(s.eta_window, s.scan_points) for s in CRITERION_4_VARIANTS.values()] + [extra]))
    compared = 0
    for d in range(3, 13):
        for ell in range(3):
            for ansatz in Ansatz:
                config = PhysicalConfig(dimension=d, ell=ell, ansatz=ansatz)
                args = (ansatz, d, k_value(config), coefficients.coupling_xi(config))
                columns = np.broadcast_arrays(*core._energy_scalars(*args, etas))
                rows = np.array([core._energy_scalars(*args, eta) for eta in etas.tolist()])
                for column, row in zip(columns, rows.T):
                    assert np.array_equal(column.view(np.int64), row.view(np.int64)), (d, ell, ansatz)
                compared += len(etas)
    assert compared >= 60 * 8_000


@pytest.mark.parametrize("d, ansatz", [(3, Ansatz.ONE_OVER_R), (5, Ansatz.GENERALIZED)])
def test_a_search_pass_screens_its_window_in_one_call(monkeypatch, d, ansatz):
    # one _screen_islands call and one _energy_scalars call on the whole
    # window's array a pass: no per-energy loop in the screen
    screens, arrays = [], []
    screen = solver._screen_islands
    scalars = solver._energy_scalars
    monkeypatch.setattr(solver, "_screen_islands", lambda *args: screens.append(args) or screen(*args))
    monkeypatch.setattr(solver, "_energy_scalars", lambda *args: arrays.append(args[-1]) or scalars(*args))
    settings = SolverSettings()
    solver._search(PhysicalConfig(dimension=d, ansatz=ansatz), settings,
                   replace(settings, grid_delta=solver._STEER_STEP))
    assert len(screens) == len(arrays) == 1
    assert np.array_equal(arrays[0], _scan_etas(settings.eta_window, settings.scan_points))


def _composed_weight(fields, tau, scheme):
    """u = (tau - U)/g from the fields: U = V, or V + g (p^2/4 + p'/2) under the canonical scheme."""
    potential = fields["v"]
    if scheme is Scheme.CANONICAL:
        potential = potential + fields["g"] * (fields["p"] * fields["p"] / 4.0
                                               + fields["p_prime"] / 2.0)
    return (tau - potential) / fields["g"]


def _basis_weight(coeffs, grid, scheme):
    """u = (tau - U)/g on the nodes, from the basis the solver's step arrays take."""
    return coefficients._weight(coeffs.tau, *_weight_basis(coeffs, grid, scheme)[:2])


WEIGHT_CASES = ([(Ansatz.ONE_OVER_R, d) for d in range(3, 10)]
                + [(Ansatz.GENERALIZED, d) for d in range(3, 11)])


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz,dimension", WEIGHT_CASES)
def test_trial_weight_is_the_composition_of_the_fields(ansatz, dimension, scheme):
    # one formula u = (tau - U)/g for both families and both schemes: from the
    # per-grid basis (the Gauss law at D >= 4 from the trial's own scalars) it
    # equals the same composition of the fields bit for bit, and under the
    # generalized scheme the fields' own w; it agrees with the textbook forms
    # w = q tau - s/rho^(D-2) (rho^1 for the 1/r family) and
    # W = w - p^2/4 - p'/2 within rounding of the terms they add
    grid = RadialGrid(rho_min=1e-6, rho_max=60.0, n_points=6001)
    nodes = grid.nodes()
    for eta in (0.6, 0.99, 0.99997):
        coeffs, _ = _coeffs_at(dimension, ansatz, eta)
        f = coeffs.fields_fn(nodes)
        tau = coeffs.tau
        weight = _basis_weight(coeffs, grid, scheme)
        assert np.array_equal(weight, _composed_weight(f, tau, scheme)), eta
        if scheme is Scheme.GENERALIZED:
            assert np.array_equal(weight, f["w"]), eta
        s_term = f["s"] / nodes ** coeffs.singular_power
        reference = f["q"] * tau - s_term
        magnitude = np.abs(f["q"] * tau) + np.abs(s_term)
        if scheme is Scheme.CANONICAL:
            reference = reference - f["p"] ** 2 / 4.0 - f["p_prime"] / 2.0
            magnitude += f["p"] ** 2 / 4.0 + np.abs(f["p_prime"]) / 2.0
        error = np.abs(weight - reference)
        assert np.all(error <= 1e-13 * magnitude), (eta, np.max(error / magnitude))


@pytest.mark.parametrize("dimension", range(3, 10))
def test_one_over_r_weight_from_the_cached_potential_is_the_fields_weight(dimension):
    # the solver forms W from a basis cached per grid; it must be the
    # composition of the fields, bit for bit across the default window
    settings = SolverSettings()
    for eta in _scan_etas(settings.eta_window, 5):
        coeffs, _ = _coeffs_at(dimension, Ansatz.ONE_OVER_R, float(eta))
        grid = settings.resolve_grid(coeffs.turning_scale)
        weight = _basis_weight(coeffs, grid, Scheme.CANONICAL)
        fields = coeffs.fields_fn(grid.nodes())
        assert np.array_equal(weight, _composed_weight(fields, coeffs.tau, Scheme.CANONICAL))


@pytest.mark.parametrize("ansatz", [Ansatz.ONE_OVER_R, Ansatz.GENERALIZED])
def test_generalized_step_coefficients_without_p1_are_the_full_ones(ansatz):
    # the step arrays form only p0 and p2 at the interior nodes, from the
    # cached basis; they must be those of the fields' p, p' and w, bit for bit
    coeffs, _ = _coeffs_at(3, ansatz, 0.99997)
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    nodes = grid.nodes()
    w = _basis_weight(coeffs, grid, Scheme.GENERALIZED)
    half_step, p_prime = _weight_basis(coeffs, grid, Scheme.GENERALIZED)[2:]
    lower, upper = solver._generalized_arrays(half_step, p_prime, w[:-2], w[2:], grid.step)
    fields = coeffs.fields_fn(nodes)
    p0, p2 = solver._generalized_arrays(fields["p"][1:-1] * grid.step / 2.0, fields["p_prime"][1:-1],
                                        fields["w"][:-2], fields["w"][2:], grid.step)
    assert np.array_equal(w, fields["w"])
    assert np.array_equal(lower, p0) and np.array_equal(upper, p2)


def test_one_over_r_mismatch_does_not_evaluate_the_fields(monkeypatch):
    coeffs, _ = _coeffs_at(3, Ansatz.ONE_OVER_R, 0.99997)
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    m = _match_index(coeffs, grid, 3)
    expected = _mismatch_at_match(coeffs, grid, m, Scheme.CANONICAL)
    calls = []
    original = coefficients.ansatz1_fields
    monkeypatch.setattr(coefficients, "ansatz1_fields",
                        lambda *args: calls.append(args) or original(*args))
    assert _mismatch_at_match(coeffs, grid, m, Scheme.CANONICAL) == expected
    assert calls == []
    coeffs.fields_fn(grid.nodes()[:3])  # the hook itself is live
    assert len(calls) == 1


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@hypothesis_settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(eta=st.floats(min_value=0.01, max_value=1.0 - 1e-9), ell=st.integers(0, 2))
def test_d3_field_basis_holds_no_energy(scheme, eta, ell):
    # the cache serves every energy at D = 3: a Gauss-law trial's basis is the
    # one cached c = 0 basis of its grid, the same object, and agrees with the
    # Gauss-law formulas at the trial's own c = K lam^(1/2) within rounding
    config = PhysicalConfig(dimension=3, ell=ell, ansatz=Ansatz.GENERALIZED)
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    grid = RadialGrid(rho_min=1e-6, rho_max=50.0, n_points=5001)
    gamma2 = coeffs.k_value * coeffs.k_value - coeffs.xi * coeffs.xi
    cached = _weight_basis(coeffs, grid, scheme)
    assert coeffs.c_const == 0.0
    assert cached is _field_basis(grid, scheme, (gamma2,))
    own = _gauss_law_d3_row(coeffs)
    fresh = _field_basis.__wrapped__(grid, scheme, (3, own.k_value, own.a_const, own.c_const,
                                                    own.lambda_d3))
    assert len(cached) == len(fresh)
    for a, b in zip(cached, fresh):
        assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz", [Ansatz.ONE_OVER_R, Ansatz.GENERALIZED])
def test_swept_trials_evaluate_no_fields(monkeypatch, ansatz, scheme):
    # after a first trial has filled the per-grid caches, no swept trial
    # evaluates the coefficient fields over the grid, under either scheme
    config = PhysicalConfig(dimension=3, ansatz=ansatz)
    settings = SolverSettings(scheme=scheme)
    etas = (0.99990, 0.99995, 0.99997)
    work = solver.Workspace()
    solver._evaluate_trial(etas[0], config, settings, work)
    calls = []
    for owner, name in ((coefficients, "general_fields"), (coefficients, "static_fields"),
                        (coefficients, "ansatz1_fields"), (solver, "static_fields")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=original: calls.append(args) or _f(*args))
    for eta in etas[1:]:
        delta, m, _ = solver._evaluate_trial(eta, config, settings, work)
        assert m is not None and delta is not None
    assert calls == []


def _swept_trials(solve_cached, config, settings, count):
    """(eta, coeffs, grid, m) of ``count`` + 1 trials spread over a solve's swept window."""
    result = solve_cached(config.dimension, config.ansatz, scheme=settings.scheme)
    swept = [eta for eta, d in result.scan_trace if d is not None]
    trials = []
    for eta in np.linspace(min(swept), max(swept), count + 1):
        coeffs = build_coefficients(dimensionless_state(config, float(eta)), config)
        grid = settings.resolve_grid(coeffs.turning_scale)
        trials.append((float(eta), coeffs, grid, _match_index(coeffs, grid, 3)))
    return trials


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz", [Ansatz.ONE_OVER_R, Ansatz.GENERALIZED])
def test_swept_trials_fault_in_no_pages(solve_cached, ansatz, scheme):
    # every grid-sized array of a swept trial lives in the solve's workspace
    # or a per-grid cache: after one warm-up trial, twenty more make (almost)
    # no minor page faults in this process (a trial that allocated its
    # arrays afresh made 330 to 1,100 each)
    config = PhysicalConfig(dimension=3, ansatz=ansatz)
    settings = SolverSettings(scheme=scheme)
    trials = _swept_trials(solve_cached, config, settings, 20)
    work = solver.Workspace()
    solver._evaluate_trial(trials[0][0], config, settings, work)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for eta, *_ in trials[1:]:
        solver._evaluate_trial(eta, config, settings, work)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 20 <= 64, faults


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz", [Ansatz.ONE_OVER_R, Ansatz.GENERALIZED])
def test_swept_mismatch_allocates_no_grid_sized_array(solve_cached, ansatz, scheme):
    # the mismatch writes every array into the workspace: past the first
    # trial, the most it holds at once (numpy's iterator buffers) stays below
    # one array of the grid's size
    config = PhysicalConfig(dimension=3, ansatz=ansatz)
    trials = _swept_trials(solve_cached, config, SolverSettings(scheme=scheme), 20)
    work = solver.Workspace()
    _mismatch_at_match(*trials[0][1:], scheme, work)
    tracemalloc.start()
    try:
        for _, coeffs, grid, m in trials[1:]:
            _mismatch_at_match(coeffs, grid, m, scheme, work)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * trials[0][2].n_points, (current, peak)


def _allocating_mismatch(coeffs, grid, m, scheme):
    """Delta as every trial formed it before the workspace: fresh arrays, fields, allocating product."""
    nodes, h = grid.nodes(), grid.step
    h2_12 = h * h / 12.0
    tau = coeffs.tau
    if scheme is Scheme.CANONICAL:
        u = _composed_weight(coeffs.fields_fn(nodes), tau, scheme)
        f = 1.0 + h2_12 * u
        lower, upper = f[:-2], f[2:]
    else:
        fields = coeffs.fields_fn(nodes)
        u, p, p_prime = fields["w"], fields["p"][1:-1], fields["p_prime"][1:-1]
        lower = 1.0 - p * h / 2.0 + (u[:-2] + p_prime) * h2_12
        upper = 1.0 + p * h / 2.0 + (u[2:] + p_prime) * h2_12
    s = h2_12 * (u[:-2] + 10.0 * u[1:-1] + u[2:])
    with mock.patch.object(numerov, "_transfer_product",
                           lambda lower, upper, s, space: _allocating_transfer_product(lower, upper, s)):
        left, right = numerov.match_samples(lower, upper, s, m, (0.0, 1.0), (1.0, math.exp(h / 2.0)))
    return _log_derivative_gap(left, right, h)


def test_swept_trials_never_evaluate_the_integrating_factor(monkeypatch):
    # the canonical scheme matches in chi, the variable it propagates: the
    # factor maps only the exported eigenfunction back to phi
    calls = []
    original = coefficients.CoefficientSet.integrating_factor_fn
    monkeypatch.setattr(coefficients.CoefficientSet, "integrating_factor_fn",
                        lambda self, rho: calls.append(rho) or original(self, rho))
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings(scheme=Scheme.CANONICAL)
    result = solve_ground_state(config, settings)
    assert result.found
    assert sum(1 for _, delta in result.scan_trace if delta is not None) > 0
    assert calls == []
    eigenfunction(config, settings, result.eta_star)
    assert len(calls) == 1 and np.ndim(calls[0]) == 1


# ---------------------------------------------------------------------------
# mismatch: transfer-matrix product against the node-by-node sweeps

KERNEL_CASES = [(Ansatz.ONE_OVER_R, d) for d in range(3, 10)] + [(Ansatz.GENERALIZED, 3)]


def _product_and_sweep_mismatch(eta, config, settings):
    """Delta(eta) from the transfer-matrix product and from the sequential sweeps."""
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    grid = settings.resolve_grid(coeffs.turning_scale)
    m = _match_index(coeffs, grid, settings.min_island_nodes)
    assert m is not None, eta
    left, right = _propagate_halves(coeffs, grid, m, settings.scheme)
    sweep = _log_derivative_gap(left[m - 1 : m + 2], right[m - 1 : m + 2], grid.step)
    return _mismatch_at_match(coeffs, grid, m, settings.scheme), sweep, right


def _swept_eta(solve_cached, ansatz, dimension, scheme, fraction):
    """An eta at the given fraction of the part of the window a solve sweeps."""
    swept = [eta for eta, d in solve_cached(dimension, ansatz, scheme=scheme).scan_trace
             if d is not None]
    return min(swept) + fraction * (max(swept) - min(swept))


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz,dimension", KERNEL_CASES)
@hypothesis_settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_product_mismatch_matches_sequential_sweep(solve_cached, ansatz, dimension, scheme,
                                                  fraction):
    # from the first trial with an island up to the accepted root
    eta = _swept_eta(solve_cached, ansatz, dimension, scheme, fraction)
    config = PhysicalConfig(dimension=dimension, ell=0, ansatz=ansatz)
    product, sweep, _ = _product_and_sweep_mismatch(eta, config, SolverSettings(scheme=scheme))
    assert abs(product - sweep) <= 1e-9 * max(1.0, abs(sweep)), (eta, product, sweep)


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("ansatz,dimension", KERNEL_CASES)
@hypothesis_settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_workspace_mismatch_equals_the_allocating_composition(solve_cached, ansatz, dimension,
                                                              scheme, fraction):
    # the trial in the reused workspace, from cached fields, against the
    # fields, fresh arrays and allocating product it replaced: equal, not close
    eta = _swept_eta(solve_cached, ansatz, dimension, scheme, fraction)
    config = PhysicalConfig(dimension=dimension, ell=0, ansatz=ansatz)
    coeffs = build_coefficients(dimensionless_state(config, eta), config)
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    m = _match_index(coeffs, grid, 3)
    assert _mismatch_at_match(coeffs, grid, m, scheme) == _allocating_mismatch(coeffs, grid, m, scheme)


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
@pytest.mark.parametrize("grid_b", [1500.0, 1500.01])
@hypothesis_settings(max_examples=3, derandomize=True, deadline=None, database=None)
@given(fraction=st.floats(min_value=0.0, max_value=1.0))
def test_product_mismatch_matches_rescaled_sweep(solve_cached, scheme, grid_b, fraction):
    # a far boundary at 1500 makes the inward solution grow past 1e300: the
    # sweep rescales and the product renormalizes (coarse step keeps the sweep
    # affordable); the two grids have an odd and an even number of nodes
    settings = SolverSettings(scheme=scheme, grid_b=grid_b, grid_delta=1e-2)
    eta = _swept_eta(solve_cached, Ansatz.ONE_OVER_R, 3, scheme, fraction)
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    product, sweep, right = _product_and_sweep_mismatch(eta, config, settings)
    assert abs(right[-1]) < 1e-100  # the sweep's retroactive rescaling reached the seed
    assert abs(product - sweep) <= 1e-9 * max(1.0, abs(sweep)), (eta, product, sweep)


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
def test_sweep_samples_are_the_product_samples_on_a_long_island(scheme):
    # at eta = 0.999999999 the D = 3 (1/r) grid has 700,001 nodes; the sweeps
    # step the recurrence whose transfer matrices the mismatch multiplies, in
    # the same difference form, so their samples at m-1, m, m+1 are the
    # product's up to one positive scale (a sweep that formed B = 12 - 10f
    # drifted from them by 3e-11 to 9e-11 relative here)
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    coeffs = build_coefficients(dimensionless_state(config, 0.999999999), config)
    grid = SolverSettings().resolve_grid(coeffs.turning_scale)
    assert grid.n_points == 700_001
    m = _match_index(coeffs, grid, 3)
    lower, upper, s, product = _step_arrays(coeffs, grid, scheme, solver.Workspace(),
                                            numerov.product_space(grid.n_points - 2))
    expected = numerov.match_samples(lower, upper, s, m, *_seeds(grid.step), product)
    for swept, samples in zip(_propagate_halves(coeffs, grid, m, scheme), expected):
        got, samples = np.asarray(swept[m - 1 : m + 2]), np.asarray(samples)
        scale = samples[1] / got[1]
        assert scale > 0.0
        assert np.all(np.abs(got * scale - samples) <= 1e-12 * np.abs(samples)), (got, samples)


# ---------------------------------------------------------------------------
# ground-state search


def test_d3_ground_state_binding_energy(solve_cached):
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    assert result.found
    assert abs(result.epsilon_ev - (-13.606)) < 1.5e-3
    assert result.mismatch_residual <= 1e-8
    assert result.match_rho is not None and 4.0 < result.match_rho < 8.0
    assert result.scan_trace, "trace must be recorded"


def test_d6_ground_state(solve_cached):
    result = solve_cached(6, Ansatz.ONE_OVER_R)
    level = analytic_energy(PhysicalConfig(dimension=6, ansatz=Ansatz.ONE_OVER_R))
    assert result.found
    assert abs(result.eta_star - level.energy_ratio) <= 5e-8
    assert abs(result.epsilon_ev - (-2.177)) < 5e-3


def test_bracketing_soundness(solve_cached):
    # the accepted root must be a genuine sign change of the mismatch
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    width = 1e-9
    lo = solver._evaluate_trial(result.eta_star - width, config, SolverSettings())[0]
    hi = solver._evaluate_trial(result.eta_star + width, config, SolverSettings())[0]
    assert (lo < 0.0) != (hi < 0.0)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_each_root_is_refined_in_at_most_eight_trials(monkeypatch, scheme):
    # ITP steps converge superlinearly where the mismatch is smooth (bisection
    # took 19-21 trials per root)
    trials, per_bracket = [0], []
    evaluate, refine = solver._evaluate_trial, solver._bisect_bracket

    def counting_evaluate(*args):
        trials[0] += 1
        return evaluate(*args)

    def counting_refine(*args):
        start = trials[0]
        hit = refine(*args)
        per_bracket.append(trials[0] - start)
        return hit

    monkeypatch.setattr(solver, "_evaluate_trial", counting_evaluate)
    monkeypatch.setattr(solver, "_bisect_bracket", counting_refine)
    for d in range(3, 10):
        per_bracket.clear()
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R)
        assert solve_ground_state(config, SolverSettings(scheme=scheme)).found
        assert per_bracket[-1] <= 8, (d, per_bracket)  # the accepted root's bracket comes last


_POLE = 0.99999


def _pole_trial(eta, config, settings, work=None):
    """(Delta, m, grid) of a trial whose Delta = 1/(eta - p) changes sign through a pole, not a root."""
    return (math.inf if eta == _POLE else 1.0 / (eta - _POLE)), 1, None


def _pole_block(etas, config, settings, steer, work=None):
    """The block seam's rows of :func:`_pole_trial`, one a call."""
    return [_pole_trial(etas[0], config, steer, work)]


def test_refinement_converges_onto_a_pole_that_the_search_rejects(monkeypatch):
    monkeypatch.setattr(solver, "_evaluate_trial", _pole_trial)
    monkeypatch.setattr(solver, "_evaluate_block", _pole_block)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings()
    lo, hi = _POLE - 3e-6, _POLE + 1e-6
    eta, delta, _, _ = solver._bisect_bracket(lo, _pole_trial(lo, config, settings)[0],
                                              hi, _pole_trial(hi, config, settings)[0],
                                              config, settings)
    assert abs(eta - _POLE) <= 2.0 * math.ulp(_POLE)  # down to machine width
    assert abs(delta) > settings.mismatch_tol
    result = solve_ground_state(config, settings)
    assert not result.found and result.status == "absent"
    assert "failed the acceptance tolerance (poles)" in result.verdict_reason


def test_a_non_finite_trial_in_the_bracket_falls_back_to_the_midpoint(monkeypatch):
    # Delta = eta - p but inf at the first trial, whose regula-falsi estimate
    # is off the midpoint: the estimate is undefined with an inf end, so the
    # next trial is the midpoint of what is left
    p, lo, hi = 0.7, 0.6, 0.9
    etas = []

    def trial(eta, config, settings, work=None):
        etas.append(eta)
        return (math.inf if len(etas) == 1 else eta - p), 1, None

    monkeypatch.setattr(solver, "_evaluate_trial", trial)
    settings = SolverSettings()
    eta, delta, _, _ = solver._bisect_bracket(lo, lo - p, hi, hi - p, None, settings)
    assert lo < etas[0] < hi and etas[0] != 0.5 * (lo + hi)
    assert etas[1] == 0.5 * (lo + etas[0])  # inf is positive: the first trial ended the bracket above
    assert abs(delta) <= settings.mismatch_tol and abs(eta - p) <= settings.root_tol


def _root_nodes(result, config, settings):
    """Sign changes of the outward solution below the match node at the result's root."""
    coeffs, grid = solver._trial_setup(result.eta_star, config, settings)
    m = _match_index(coeffs, grid, settings.min_island_nodes)
    return solver._outward_nodes(result.eta_star, m, config, settings, solver.Workspace())


_NODELESS_CASES = (
    [(d, Ansatz.ONE_OVER_R, scheme, {}) for d in range(3, 10) for scheme in Scheme]
    + [(3, Ansatz.GENERALIZED, Scheme.CANONICAL, {}),
       (3, Ansatz.GENERALIZED, Scheme.CANONICAL, {"ell": 1}),
       (3, Ansatz.GENERALIZED, Scheme.CANONICAL, {"k_sign": KSign.MINUS})]
)


@pytest.mark.parametrize("d, ansatz, scheme, cfg_kw", _NODELESS_CASES)
def test_every_default_root_is_nodeless(solve_cached, d, ansatz, scheme, cfg_kw):
    config = PhysicalConfig(dimension=d, ansatz=ansatz, **cfg_kw)
    settings = SolverSettings(scheme=scheme)
    result = solve_ground_state(config, settings) if cfg_kw else solve_cached(d, ansatz, scheme)
    assert result.found
    assert _root_nodes(result, config, settings) == 0


@pytest.mark.parametrize("settings_kw, nodes", [
    # the n_r = 1 level: the ground state lies below the window
    ({"eta_window": (0.99999, 0.999999), "scan_points": 20}, 1),
    # a grid too coarse to resolve the ground state (refinement lands on
    # one of the excited roots the scan's bracket holds); the count starts
    # past the first step, whose A = f[0] is about -1.6e10
    ({"grid_delta": 0.5}, 25),
])
def test_a_root_with_nodes_is_not_the_ground_state(settings_kw, nodes):
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings(**settings_kw)
    result = solve_ground_state(config, settings)
    assert not result.found and result.eta_star is None and result.match_rho is None
    assert result.status == "excited"
    assert f"has {nodes} node(s) below the match point" in result.verdict_reason
    eta, residual = result.scan_trace[-1]  # the rejected root ends the trace
    assert abs(residual) <= settings.mismatch_tol
    assert _root_nodes(replace(result, eta_star=eta), config, settings) == nodes
    if nodes == 1:
        assert abs(eta - analytic_energy(config, n_r=1).energy_ratio) <= 5e-8


def test_non_finite_mismatch_at_every_island_is_a_numerical_failure(monkeypatch):
    # a mismatch that is inf at every island is no verdict on a bound state
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings(scan_points=20)
    monkeypatch.setattr(solver, "_mismatch_at_match", lambda *args, **kwargs: math.inf)
    with pytest.raises(NonFiniteValue):
        solve_ground_state(config, settings)
    ((d, result),) = dimension_scan((3, 3), Ansatz.ONE_OVER_R, settings)
    assert d == 3 and not result.found and result.error is NonFiniteValue
    assert result.status == "error"


def test_underflowed_match_samples_are_a_numerical_failure():
    # the outward product of a K = 41 solve leaves samples of 4e-323, where
    # 2 h y[m] rounds to 0
    tiny, normal = [4e-323] * 3, [1.0, 2.0, 3.0]
    for left, right in ((tiny, normal), (normal, tiny)):
        with pytest.raises(NonFiniteValue, match="underflow"):
            _log_derivative_gap(left, right, 1e-3)


@pytest.mark.parametrize("scheme", [Scheme.CANONICAL, Scheme.GENERALIZED])
def test_d3_gauss_law_with_negative_k_finds_the_one_over_r_root(scheme):
    # at D = 3 the Gauss law is the 1/r problem for either sign of K
    settings = SolverSettings(scheme=scheme)
    found = [solve_ground_state(PhysicalConfig(dimension=3, ansatz=ansatz, k_sign=KSign.MINUS),
                                settings) for ansatz in Ansatz]
    assert all(result.found for result in found)
    assert abs(found[0].eta_star - found[1].eta_star) <= 1e-10


def test_gauss_law_not_found_d4(solve_cached):
    result = solve_cached(4, Ansatz.GENERALIZED)
    assert not result.found
    assert result.eta_star is None and result.epsilon_ev is None
    assert result.scan_trace and all(d is None for _, d in result.scan_trace)
    assert "no turning point" in result.verdict_reason


def test_mismatch_scan_matches_trace():
    config = PhysicalConfig(dimension=4, ansatz=Ansatz.GENERALIZED)
    settings = SolverSettings(scan_points=50)
    scan = mismatch_scan(config, settings)
    assert len(scan) == 50
    assert all(d is None for _, d in scan)
    etas = [e for e, _ in scan]
    assert etas == sorted(etas)


def test_mismatch_scan_rejects_an_oversized_window_before_any_trial(monkeypatch):
    # at D = 3 the grid for eta = 1 - 1e-12 needs ~2e7 nodes; tau' grows with
    # eta, so checking the window's ends rejects it before the first trial
    calls = []
    for name in ("_evaluate_trial", "_evaluate_block", "_screen_islands"):
        original = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *args, fn=original: calls.append(args) or fn(*args))
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    with pytest.raises(ConfigError, match="grid would need"):
        mismatch_scan(config, SolverSettings(eta_window=(0.01, 1.0 - 1e-12)))
    assert calls == []


def test_solver_settings_validation():
    with pytest.raises(ConfigError):
        SolverSettings(eta_window=(0.9, 0.5))
    with pytest.raises(ConfigError):
        SolverSettings(eta_window=(-0.5, 0.9))
    with pytest.raises(ConfigError):
        SolverSettings(scan_points=1)
    with pytest.raises(ConfigError):
        SolverSettings(grid_delta=-1.0)


@pytest.mark.parametrize("field,value", [("scan_points", 2.5), ("scan_points", 2000.0),
                                         ("min_island_nodes", 2.5), ("min_island_nodes", 3.0),
                                         ("min_island_nodes", True)])
def test_solver_settings_rejects_a_count_that_is_not_an_integer(field, value):
    # a float scan count used to be accepted and then fail the solve with a
    # TypeError (reported as a numerical failure); a float or bool island
    # width ran
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        SolverSettings(**{field: value})


@pytest.mark.parametrize("field", ["grid_a", "grid_b", "grid_b_scale", "grid_delta", "root_tol",
                                   "mismatch_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_solver_settings_rejects_a_non_finite_value(field, value):
    # an infinite step or cutoff used to run and report "not found" or an
    # integer conversion failure; an infinite tolerance accepted any sign change
    with pytest.raises(ConfigError, match=field):
        SolverSettings(**{field: value})


@pytest.mark.parametrize("settings_kw, name", [({"grid_b": 8.0}, "grid_b"),
                                                ({"grid_b": 47.9}, "grid_b"),
                                                ({"grid_b_scale": 0.5}, "grid_b_scale")])
def test_a_grid_short_of_the_decay_margin_is_a_config_error(settings_kw, name):
    # the inward seeds assume the decay margin past the turning radius: a
    # shorter grid shifted the D = 3 ground state 6.6e-7 or lost it altogether
    settings = SolverSettings(**settings_kw)
    with pytest.raises(ConfigError, match=f"{name} gives rho_max = .*short of the 48 "):
        settings.resolve_grid(1.0)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    with pytest.raises(ConfigError, match=name):
        solve_ground_state(config, settings)
    assert SolverSettings(grid_b=48.0).resolve_grid(1.0).rho_max == 48.0
    # the floor of 50 covers it
    assert SolverSettings(grid_b_scale=0.9).resolve_grid(1.0).rho_max == 50.0


@pytest.mark.parametrize("scheme", ["canonical", "generalized", None, 0])
def test_solver_settings_rejects_a_scheme_that_is_not_a_scheme(scheme):
    # a string used to be accepted and then run as the generalized scheme
    with pytest.raises(ConfigError, match="Scheme member"):
        SolverSettings(scheme=scheme)


def test_dimension_scan_serial_matches_parallel():
    settings = SolverSettings(scan_points=120, eta_window=(0.9, 1.0 - 1e-7))
    serial = dimension_scan((4, 6), Ansatz.GENERALIZED, settings, workers=1)
    parallel = dimension_scan((4, 6), Ansatz.GENERALIZED, settings, workers=2)
    assert [d for d, _ in serial] == [4, 5, 6]
    for (d1, r1), (d2, r2) in zip(serial, parallel):
        assert d1 == d2
        assert r1.found == r2.found
        assert r1.verdict_reason == r2.verdict_reason
        assert len(r1.scan_trace) == len(r2.scan_trace)


def test_dimension_scan_d3_gauss_law_found(solve_cached):
    # at D = 3 the two Coulomb conventions are the same problem
    result = solve_cached(3, Ansatz.GENERALIZED)
    assert result.found
    assert abs(result.epsilon_ev - (-13.606)) < 1.5e-3


# ---------------------------------------------------------------------------
# eigenfunction


@pytest.fixture(scope="module")
def d3_wave(solve_cached):
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    return eigenfunction(config, SolverSettings(), result.eta_star), result


def test_eigenfunction_nodeless_and_normalized(d3_wave):
    wave, _ = d3_wave
    phi = wave.phi_plus
    # single-signed away from the inner boundary (ground state has no nodes)
    core = phi[np.abs(phi) > 1e-12 * np.max(np.abs(phi))]
    assert np.all(core > 0.0) or np.all(core < 0.0)
    norm = math.sqrt(wave.grid.step * float(np.dot(phi, phi)))
    assert abs(norm - 1.0) <= 1e-10


def test_eigenfunction_matches_analytic_shape(d3_wave):
    wave, _ = d3_wave
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    nodes = wave.grid.nodes()
    overlay = analytic_ground_wavefunction_d3(nodes, config)
    window = nodes <= 20.0
    assert np.max(np.abs(wave.phi_plus[window] - overlay[window])) <= 1e-3


def test_eigenfunction_component_identity(d3_wave):
    wave, result = d3_wave
    # F and G must reproduce the defining combinations of phi_+ and phi_-
    eta = result.eta_star
    phi_minus = wave.phi_plus - wave.f_component / math.sqrt(1.0 + eta)
    f_again, g_again = reconstruct_fg(wave.phi_plus, phi_minus, 1.0, eta)
    assert np.allclose(f_again, wave.f_component, rtol=1e-12, atol=1e-15)
    assert np.allclose(g_again, wave.g_component, rtol=1e-10, atol=1e-12)


def test_eigenfunction_satisfies_first_order_system(d3_wave):
    # the reconstructed pair must satisfy the second coupled equation
    #   phi_-' + (tau/rho - 1/2) phi_- = -(K/rho - tau'/rho) phi_+
    # to discretization accuracy; this closes the loop on the decoupling
    wave, result = d3_wave
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    state = dimensionless_state(config, result.eta_star)
    coeffs = build_coefficients(state, config)
    nodes = wave.grid.nodes()
    h = wave.grid.step
    eta = result.eta_star
    phi_minus = wave.phi_plus - wave.f_component / math.sqrt(1.0 + eta)
    sl = slice(2000, 20000)
    dminus = np.gradient(phi_minus, h)[sl]
    tau, tau_p = coeffs.tau, coeffs.turning_scale
    lhs = dminus + (tau / nodes[sl] - 0.5) * phi_minus[sl]
    rhs = -(state.k_value / nodes[sl] - tau_p / nodes[sl]) * wave.phi_plus[sl]
    assert np.max(np.abs(lhs - rhs)) < 5e-6


SWEEP_NAMES = ("_numerov_sweep_lr", "_numerov_sweep_rl", "_general_sweep_lr", "_general_sweep_rl")


@pytest.mark.parametrize("scheme,swept", [(Scheme.CANONICAL, SWEEP_NAMES[:2]),
                                          (Scheme.GENERALIZED, SWEEP_NAMES[2:])])
def test_eigenfunction_sweeps_its_scheme_once_each_way_without_fields(monkeypatch, solve_cached,
                                                                      scheme, swept):
    # the sweeps take the step arrays the mismatch takes, from the cached
    # weight basis: the eigenfunction evaluates no coefficient field
    result = solve_cached(3, Ansatz.ONE_OVER_R, scheme=scheme)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    settings = SolverSettings(scheme=scheme)
    expected = eigenfunction(config, settings, result.eta_star)
    calls = []
    for name in SWEEP_NAMES:
        original = getattr(solver, name)
        monkeypatch.setattr(solver, name,
                            lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))

    def refuse(*args):
        raise AssertionError("a coefficient field was evaluated")

    monkeypatch.setattr(coefficients, "ansatz1_fields", refuse)
    monkeypatch.setattr(coefficients, "general_fields", refuse)
    wave = eigenfunction(config, settings, result.eta_star)
    assert sorted(calls) == sorted(swept)
    assert np.array_equal(wave.phi_plus, expected.phi_plus)


def test_eigenfunction_rejects_non_eigenvalue():
    config = PhysicalConfig(dimension=5, ansatz=Ansatz.GENERALIZED)
    with pytest.raises(ConfigError):
        eigenfunction(config, SolverSettings(), 0.999)


# ---------------------------------------------------------------------------
# robustness spot checks (full battery lives in the acceptance suite)


def test_grid_refinement_stability(solve_cached):
    # halving the step moves the converged eigenvalue by less than 1e-9
    # (fourth-order discretization leaves nothing at this scale)
    coarse = solve_cached(3, Ansatz.ONE_OVER_R)
    fine = solve_cached(3, Ansatz.ONE_OVER_R, grid_delta=5e-4)
    assert fine.found
    assert abs(fine.eta_star - coarse.eta_star) <= 1e-9


def test_not_found_verdict_stable_under_window_change():
    config = PhysicalConfig(dimension=7, ansatz=Ansatz.GENERALIZED)
    base = solve_ground_state(config, SolverSettings(scan_points=400))
    wide = solve_ground_state(
        config, SolverSettings(scan_points=400, eta_window=(0.01, 1.0 - 1e-12))
    )
    assert not base.found and not wide.found
