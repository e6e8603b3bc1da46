import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    KSign,
    PhysicalConfig,
    RadialGrid,
    build_coefficients,
    coupling_xi,
    dimensionless_state,
)
from dirac_numerov.coefficients import _weight
from dirac_numerov.core import FINE_STRUCTURE_CONSTANT as ALPHA
from dirac_numerov.errors import UnsupportedDimension
from dirac_numerov.numerov import Scheme
from dirac_numerov.solver import _weight_basis

mpmath.mp.dps = 40


def _a2_config(d, **kw):
    return PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED, **kw)


def _a1_config(d, **kw):
    return PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R, **kw)


# ---------------------------------------------------------------------------
# one trial's scalars


@pytest.mark.parametrize("ansatz", list(Ansatz))
@pytest.mark.parametrize("d", range(3, 11))
def test_state_and_record_hold_the_same_scalars(ansatz, d):
    # the state is the record: build_coefficients checks it and returns it,
    # and tau'^2 - tau^2 = A^2 lam^(D-3) (in the cancellation-free grouping
    # tau'^2 lam)
    config = PhysicalConfig(dimension=d, ansatz=ansatz)
    for eta in (-0.999, -0.3, 0.0, 0.5, 0.99, 0.99997, 1.0 - 1e-9):
        state = dimensionless_state(config, eta)
        assert build_coefficients(state, config) is state, eta
        rhs = state.a_const**2 * state.lambda_d3
        assert abs(state.tau_prime**2 * state.lambda_ - rhs) <= 1e-12 * rhs, eta


# ---------------------------------------------------------------------------
# coupling


def test_coupling_d3_reduces_to_alpha():
    # 2 Gamma(3/2)/sqrt(pi) = 1 exactly, so both conventions coincide at D=3
    assert math.isclose(coupling_xi(_a2_config(3)), ALPHA, rel_tol=5e-16)
    assert coupling_xi(_a1_config(3)) == ALPHA
    assert coupling_xi(_a1_config(8)) == ALPHA


@pytest.mark.parametrize("d", [4, 5, 7, 10])
def test_coupling_gauss_law_against_gamma_formula(d):
    oracle = float(
        2 * mpmath.gamma(mpmath.mpf(d) / 2) * mpmath.mpf("7.2973525693e-3")
        / (mpmath.pi ** (mpmath.mpf(d - 2) / 2) * (d - 2))
    )
    assert math.isclose(coupling_xi(_a2_config(d)), oracle, rel_tol=1e-15)


def test_coupling_d5_closed_form():
    # the Gamma formula collapses to alpha/(2 pi) at D = 5
    assert math.isclose(coupling_xi(_a2_config(5)), ALPHA / (2.0 * math.pi), rel_tol=1e-15)


def test_coupling_rejects_d2_gauss_law():
    with pytest.raises(UnsupportedDimension):
        coupling_xi(_a2_config(2))


# ---------------------------------------------------------------------------
# three-dimensional reduction


def test_d3_collapses_to_one_over_r_structure():
    # the 1/r^(D-2) formulas at D = 3, with the trial's own c = K lam^(1/2),
    # against the 1/r fields the record evaluates there
    from dirac_numerov.coefficients import general_fields

    cfg = _a2_config(3)
    rng = np.random.default_rng(21)
    rho = np.linspace(0.05, 40.0, 300)
    for _ in range(100):
        eta = float(rng.uniform(0.05, 0.999))
        xi = float(rng.uniform(1e-3, 0.4))
        state = dimensionless_state(cfg, eta, xi=xi)
        reduced = build_coefficients(state, cfg)
        assert reduced.c_const == 0.0
        c = state.k_value * math.sqrt(state.lambda_)
        lhs_fields = general_fields(rho, 3, state.k_value, xi, c, 1.0, reduced.tau)
        rhs_fields = reduced.fields_fn(rho)
        for name in ("p", "q", "v", "s", "w", "p_prime"):
            lhs = lhs_fields[name]
            rhs = rhs_fields[name]
            scale = np.maximum(np.abs(rhs), 1e-30)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-10, name


@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("eta", [0.05, 0.9, 0.99997, 1.0 - 1e-9])
def test_d3_gauss_law_record_is_the_one_over_r_record(eta, ell):
    # at D = 3 both continuations give one three-dimensional equation: the
    # same record up to the rounding of the two couplings
    records = [build_coefficients(dimensionless_state(cfg, eta), cfg)
               for cfg in (_a2_config(3, ell=ell), _a1_config(3, ell=ell))]
    gauss, coulomb = records
    for record in records:
        assert record.c_const == 0.0 and record.lambda_d3 == 1.0 and record.singular_power == 1
    assert math.sqrt(gauss.gamma2) == math.sqrt(coulomb.gamma2)
    for name in ("tau", "turning_scale", "a_const"):
        a, b = getattr(gauss, name), getattr(coulomb, name)
        assert abs(a - b) <= 4 * math.ulp(b), name


def test_d3_zeroth_coefficient_closed_form():
    # at D = 3 the assembled w must equal tau/rho - 1/4 + 1/(2 rho) - (K^2-xi^2)/rho^2;
    # this pins the energy term to tau (not tau') and the sign conventions
    cfg = _a2_config(3)
    state = dimensionless_state(cfg, 0.9999)
    coeffs = build_coefficients(state, cfg)
    k2 = state.k_value**2
    rho = np.linspace(0.01, 60.0, 500)
    expected = state.tau / rho - 0.25 + 0.5 / rho - (k2 - state.xi**2) / rho**2
    got = coeffs.fields_fn(rho)["w"]
    assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-10


def test_general_w_matches_coupled_system_assembly_d5():
    # independent oracle: the zeroth-order coefficient assembled directly from
    # the first-derivative elimination of the coupled system,
    #   B (1/2 + K eta / rho) - 1/4 + tau/rho^(D-2) + 1/(2 rho)
    #     - (K^2 - (tau'^2 - tau^2)/rho^(2(D-3)))/rho^2,
    #   B = (D-3)/rho * tau'/(K rho^(D-3) + tau'),
    # evaluated in 40-digit arithmetic
    d = 5
    cfg = _a2_config(d)
    eta = 0.998
    state = dimensionless_state(cfg, eta)
    coeffs = build_coefficients(state, cfg)
    k = mpmath.mpf(state.k_value)
    xi = mpmath.mpf(state.xi)
    e = mpmath.mpf(eta)
    lam = 1 - e * e
    tau_p = 2 ** (d - 3) * xi / mpmath.sqrt(lam) ** (4 - d)
    tau = e * tau_p
    for rho in (0.01, 0.3, 1.7, 8.0, 33.0):
        r = mpmath.mpf(rho)
        b_term = (d - 3) / r * tau_p / (k * r ** (d - 3) + tau_p)
        oracle = (
            b_term * (mpmath.mpf(1) / 2 + k * e / r)
            - mpmath.mpf(1) / 4
            + tau / r ** (d - 2)
            + 1 / (2 * r)
            - (k * k - (tau_p**2 - tau**2) / r ** (2 * (d - 3))) / r**2
        )
        got = coeffs.fields_fn(rho)["w"]
        assert math.isclose(got, float(oracle), rel_tol=1e-12), rho


def test_p_at_unity_d4_special_case():
    # D = 4 has lam^((4-D)/2) = 1 exactly, so c = K; with K = 1, A = 1, lam = 0.5:
    # p(1) = 1 * (1 + (D-3) A / (c 1^(D-3) + A)) = 1 + 1/2
    from dirac_numerov.coefficients import general_fields

    fields = general_fields(1.0, 4, 1.0, 1.0, 1.0, 0.5, 0.3)
    oracle = float(1 + mpmath.mpf(1) / (mpmath.mpf(1) * 1 + 1))
    assert math.isclose(fields["p"], 1.5, rel_tol=1e-15)
    assert math.isclose(fields["p"], oracle, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# internal consistency


@pytest.mark.parametrize("d,eta", [(3, 0.9), (4, 0.99), (5, 0.995), (7, 0.9999), (10, 0.8)])
def test_v_q_s_identity(d, eta):
    cfg = _a2_config(d)
    state = dimensionless_state(cfg, eta)
    coeffs = build_coefficients(state, cfg)
    rho = np.geomspace(1e-4, 80.0, 400)
    fields = coeffs.fields_fn(rho)
    lhs = fields["v"] * fields["q"] * rho ** (d - 2)
    rhs = fields["s"]
    assert np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)) < 1e-12


@pytest.mark.parametrize("d,eta", [(3, 0.9), (5, 0.995), (8, 0.99)])
def test_w_equals_q_level_minus_v(d, eta):
    cfg = _a2_config(d)
    state = dimensionless_state(cfg, eta)
    coeffs = build_coefficients(state, cfg)
    rho = np.geomspace(1e-3, 50.0, 300)
    fields = coeffs.fields_fn(rho)
    direct = fields["w"]
    assembled = fields["q"] * (coeffs.tau - fields["v"])
    scale = np.maximum(np.abs(direct), 1e-300)
    assert np.max(np.abs(direct - assembled) / scale) < 5e-14


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_p_prime_matches_finite_differences(d):
    cfg = _a2_config(d)
    state = dimensionless_state(cfg, 0.97)
    coeffs = build_coefficients(state, cfg)
    rng = np.random.default_rng(5)
    rho = rng.uniform(0.5, 20.0, size=20)
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        fd = (coeffs.fields_fn(rho + h)["p"] - coeffs.fields_fn(rho - h)["p"]) / (2.0 * h)
        exact = coeffs.fields_fn(rho)["p_prime"]
        errors.append(np.max(np.abs(fd - exact) / np.abs(exact)))
    # second-order decay per decade of h: factor ~100, allow wide margin
    assert errors[0] / errors[1] > 30.0
    assert errors[1] / errors[2] > 30.0
    assert errors[2] < 1e-6


def test_energy_term_placement():
    # D = 3: dw/d eta falls off like 1/rho at large rho; D = 5: faster than 1/rho^2
    rho = np.array([100.0, 200.0])
    deta = 1e-6

    def dw_deta(d, eta):
        cfg = _a2_config(d)
        up = build_coefficients(dimensionless_state(cfg, eta + deta), cfg)
        dn = build_coefficients(dimensionless_state(cfg, eta - deta), cfg)
        return (up.fields_fn(rho)["w"] - dn.fields_fn(rho)["w"]) / (2.0 * deta)

    d3 = dw_deta(3, 0.9)
    ratio3 = (d3 * rho)[1] / (d3 * rho)[0]
    assert abs(ratio3 - 1.0) < 1e-6  # exactly proportional to 1/rho
    d5 = dw_deta(5, 0.9)
    decay5 = abs(d5[1]) / abs(d5[0])
    assert decay5 < 0.25 * 1.05  # at least as fast as 1/rho^2 between 100 and 200


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_weight_d3():
    cfg = _a1_config(3)
    state = dimensionless_state(cfg, 0.9999)
    coeffs = build_coefficients(state, cfg)
    grid = RadialGrid(rho_min=0.1, rho_max=30.0, n_points=100)
    rho = grid.nodes()
    expected = coeffs.fields_fn(rho)["w"] + 1.0 / (4.0 * rho**2)
    weight = _weight(coeffs.tau, *_weight_basis(coeffs, grid, Scheme.CANONICAL)[:2])
    assert np.max(np.abs(weight - expected)) < 1e-14


@pytest.mark.parametrize("d,ansatz", [(3, Ansatz.ONE_OVER_R), (5, Ansatz.GENERALIZED),
                                      (7, Ansatz.GENERALIZED)])
def test_integrating_factor_against_quadrature(d, ansatz):
    # ln factor(rho) - ln factor(rho0) must equal -1/2 int_rho0^rho p
    cfg = PhysicalConfig(dimension=d, ansatz=ansatz)
    state = dimensionless_state(cfg, 0.995)
    coeffs = build_coefficients(state, cfg)
    rho0, rho1 = 0.4, 12.0
    quad = mpmath.quad(lambda t: coeffs.fields_fn(float(t))["p"], [rho0, rho1])
    lhs = math.log(coeffs.integrating_factor_fn(rho1) / coeffs.integrating_factor_fn(rho0))
    assert math.isclose(lhs, float(-quad / 2.0), rel_tol=1e-8)


def test_canonical_weight_matches_fd_p_prime():
    # W built from analytic p' agrees with w - p^2/4 - p'_fd/2 as h^2 -> 0
    cfg = _a2_config(5)
    state = dimensionless_state(cfg, 0.99)
    coeffs = build_coefficients(state, cfg)
    grid = RadialGrid(rho_min=0.8, rho_max=15.0, n_points=50)
    rho = grid.nodes()
    exact = _weight(coeffs.tau, *_weight_basis(coeffs, grid, Scheme.CANONICAL)[:2])
    errs = []
    for h in (1e-2, 1e-3):
        fd = (coeffs.fields_fn(rho + h)["p"] - coeffs.fields_fn(rho - h)["p"]) / (2.0 * h)
        fields = coeffs.fields_fn(rho)
        approx = fields["w"] - fields["p"] ** 2 / 4.0 - fd / 2.0
        errs.append(np.max(np.abs(approx - exact)))
    assert errs[0] / errs[1] > 30.0


# ---------------------------------------------------------------------------
# K < 0


@pytest.mark.parametrize("d", range(4, 11))
@pytest.mark.parametrize("ell", range(3))
def test_gauss_law_with_negative_k_is_rejected_at_d4_and_above(d, ell):
    # with K < 0, c rho^(D-3) + A vanishes at rho = (A/-c)^(1/(D-3)): a pole
    # of the phi_+ equation that no scheme propagates through
    with pytest.raises(ValueError, match=r"c rho\^\(D-3\) \+ A = 0"):
        _a2_config(d, ell=ell, k_sign=KSign.MINUS)
    with pytest.raises(ValueError, match=r"c rho\^\(D-3\) \+ A = 0"):
        replace(_a2_config(d, ell=ell), k_sign=KSign.MINUS)
    # the Gauss law at D = 3 is the 1/r problem, and 1/r has no pole: both keep K < 0
    for cfg in (_a2_config(3, ell=ell, k_sign=KSign.MINUS),
                *(_a1_config(d1, ell=ell, k_sign=KSign.MINUS) for d1 in range(3, 10))):
        assert build_coefficients(dimensionless_state(cfg, 0.9), cfg).k_value < 0.0


# ---------------------------------------------------------------------------
# scalar and array evaluation


@pytest.mark.parametrize("ansatz", [Ansatz.ONE_OVER_R, Ansatz.GENERALIZED])
def test_scalar_fields_equal_array_fields(ansatz):
    cfg = PhysicalConfig(dimension=5, ansatz=ansatz)
    state = dimensionless_state(cfg, 0.99)
    coeffs = build_coefficients(state, cfg)
    rho = np.array([0.3, 1.0, 7.5])
    arrays = coeffs.fields_fn(rho)
    factors = coeffs.integrating_factor_fn(rho)
    for i, x in enumerate(rho):
        scalars = coeffs.fields_fn(float(x))
        assert set(scalars) == set(arrays)
        for key, value in scalars.items():
            assert type(value) is float and value == arrays[key][i], key
        factor = coeffs.integrating_factor_fn(float(x))
        assert type(factor) is float and factor == factors[i]
