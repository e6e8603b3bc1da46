"""The steered search against the production-grid search it stands for.

`solve_ground_state` evaluates the scan's open energies on a steering grid
(step at least `solver._STEER_STEP`) and refines on the production grid;
with the step monkeypatched to 0 the steering grid is the production grid,
and the search is the plain one.
"""

import pytest

from dirac_numerov import Ansatz, PhysicalConfig, SolverSettings, solve_ground_state, solver
from dirac_numerov.errors import NonFiniteValue
from dirac_numerov.numerov import Scheme


@pytest.fixture(scope="module")
def production_solve():
    """Memoized solves on the production grid alone."""
    cache = {}

    def run(config, settings):
        if (config, settings) not in cache:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_STEER_STEP", 0.0)
                cache[config, settings] = solve_ground_state(config, settings)
        return cache[config, settings]

    return run


def _fields(result):
    return (result.found, repr(result.eta_star), repr(result.mismatch_residual), result.match_rho,
            result.verdict_reason, result.status, len(result.scan_trace),
            sum(delta is not None for _, delta in result.scan_trace))


_CANONICAL = Scheme.CANONICAL
_CASES = (
    [(Ansatz.ONE_OVER_R, d, 0, scheme, {}) for scheme in Scheme for d in range(3, 10)]
    + [(Ansatz.GENERALIZED, d, 0, _CANONICAL, {}) for d in range(3, 11)]
    + [(Ansatz.ONE_OVER_R, d, ell, scheme, {})
       for d in (3, 6) for ell in (1, 2) for scheme in Scheme]
    + [(Ansatz.GENERALIZED, 3, 1, _CANONICAL, {})]
    + [(Ansatz.ONE_OVER_R, 3, 0, _CANONICAL, {"scan_points": points}) for points in (2, 3, 65, 500)]
    + [(Ansatz.ONE_OVER_R, 3, 0, _CANONICAL, window)
       for window in ({"eta_window": (0.99999, 0.999999), "scan_points": 20},
                      {"eta_window": (0.5, 0.99997)})]
    + [(Ansatz.ONE_OVER_R, 3, 0, _CANONICAL, {"grid_delta": delta}) for delta in (5e-4, 1e-2)]
)


@pytest.mark.parametrize("ansatz, d, ell, scheme, settings_kw", _CASES)
def test_steered_search_equals_the_production_grid_search(solve_cached, production_solve, ansatz, d,
                                                          ell, scheme, settings_kw):
    # Table 1 under both schemes, the Gauss law at D = 3..10, l = 1 and 2,
    # short and long scans, an excited window, a window ending
    # below the root, and grids finer than and as coarse as the steering grid
    config = PhysicalConfig(dimension=d, ell=ell, ansatz=ansatz)
    settings = SolverSettings(scheme=scheme, **settings_kw)
    steered = (solve_cached(d, ansatz, scheme, **settings_kw) if ell == 0
               else solve_ground_state(config, settings))
    assert _fields(steered) == _fields(production_solve(config, settings))


def test_the_scan_trace_holds_steering_grid_values_before_the_root(solve_cached):
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    steer = SolverSettings(grid_delta=solver._STEER_STEP)
    swept = [(eta, delta) for eta, delta in result.scan_trace[:-1] if delta is not None]
    for eta, delta in swept[-4:]:
        assert delta == solver._evaluate_trial(eta, config, steer)[0]


def _spy(monkeypatch, name, calls):
    """Record the arguments of every call to ``solver.<name>``."""
    target = getattr(solver, name)

    def spy(*args):
        calls.append(args)
        return target(*args)

    monkeypatch.setattr(solver, name, spy)


def _spy_rows(monkeypatch, rows):
    """Record (eta, steer, block size) of every row that the block seam evaluates."""
    evaluate = solver._evaluate_block

    def spy(etas, config, settings, steer, work=None):
        outcomes = evaluate(etas, config, settings, steer, work)
        rows.extend((eta, steer, len(outcomes)) for eta in etas[: len(outcomes)])
        return outcomes

    monkeypatch.setattr(solver, "_evaluate_block", spy)


def test_a_found_solve_makes_two_trials_more_than_the_production_grid_search(monkeypatch,
                                                                             production_solve):
    # the bracket's two ends, again on the production grid. Every trial is a
    # row of the block seam (a lone trial is a block of one); the steered
    # scan's last block also evaluates rows past the bracket's upper end,
    # fewer than a block holds, which the search never reaches
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    production = production_solve(config, SolverSettings())
    rows = []
    _spy_rows(monkeypatch, rows)
    result = solve_ground_state(config)
    assert result.found
    upper_end = result.scan_trace[-2][0]
    past = [eta for eta, steer, _ in rows if steer.grid_delta == solver._STEER_STEP and eta > upper_end]
    cap = max(size for *_, size in rows)
    steered = len(rows)
    monkeypatch.setattr(solver, "_STEER_STEP", 0.0)
    rows.clear()
    assert _fields(solve_ground_state(config)) == _fields(production)
    assert {size for *_, size in rows} == {1}
    assert steered - len(past) == len(rows) + 2
    assert len(past) < cap


def test_a_steering_grid_too_coarse_falls_back_to_the_production_grid(monkeypatch,
                                                                      production_solve):
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    production = production_solve(config, SolverSettings())
    searches = []
    _spy(monkeypatch, "_search", searches)
    monkeypatch.setattr(solver, "_STEER_STEP", 0.25)
    coarse = solve_ground_state(config)
    assert [steer.grid_delta for _, _, steer in searches] == [0.25, 1e-3]
    assert coarse.found
    assert _fields(coarse) == _fields(production)
    assert coarse.scan_trace == production.scan_trace


def test_a_steering_trial_that_raises_falls_back_to_the_production_grid(monkeypatch,
                                                                        production_solve):
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.ONE_OVER_R)
    production = production_solve(config, SolverSettings())
    evaluate = solver._evaluate_block

    def fails_on_the_steering_grid(etas, config, settings, steer, work=None):
        outcomes = evaluate(etas, config, settings, steer, work)
        if steer.grid_delta == solver._STEER_STEP:
            return [NonFiniteValue("non-finite samples at the match node", eta=eta)
                    for eta in etas[: len(outcomes)]]
        return outcomes

    monkeypatch.setattr(solver, "_evaluate_block", fails_on_the_steering_grid)
    result = solve_ground_state(config)
    assert _fields(result) == _fields(production)
    assert result.scan_trace == production.scan_trace


def test_the_gauss_law_certification_runs_no_steering_trial(monkeypatch):
    # every energy is settled by the screen, so there is nothing to steer
    # and no second screen
    trials, screens = [], []
    _spy(monkeypatch, "_evaluate_block", trials)
    _spy(monkeypatch, "_screen_islands", screens)
    configs = [PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED) for d in range(4, 11)]
    steered = [_fields(solve_ground_state(config)) for config in configs]
    steered_screens = len(screens)
    monkeypatch.setattr(solver, "_STEER_STEP", 0.0)
    assert steered == [_fields(solve_ground_state(config)) for config in configs]
    assert trials == []
    assert steered_screens == len(screens) - steered_screens
    assert not any(found for found, *_ in steered)
