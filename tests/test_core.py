import math

import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    KSign,
    PhysicalConfig,
    RadialGrid,
    dimensionless_state,
    discrete_l2_norm,
    k_value,
    reconstruct_fg,
)
from dirac_numerov.errors import EtaOutOfRange, LengthMismatch


def test_k_value_branches():
    assert k_value(PhysicalConfig(dimension=3, ell=0, k_sign=KSign.PLUS)) == 1.0
    assert k_value(PhysicalConfig(dimension=3, ell=0, k_sign=KSign.MINUS)) == -1.0
    assert k_value(PhysicalConfig(dimension=9, ell=0, k_sign=KSign.PLUS)) == 4.0
    assert k_value(PhysicalConfig(dimension=4, ell=2)) == 3.5


@pytest.mark.parametrize("bad", [dict(dimension=1), dict(dimension=3, ell=-1),
                                 dict(dimension=3, mass=0.0), dict(dimension=3, mass=-2.0),
                                 dict(dimension=3, mass=math.inf), dict(dimension=3, mass=math.nan)])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        PhysicalConfig(**bad)


def test_state_at_zero_energy_d3():
    config = PhysicalConfig(dimension=3, ansatz=Ansatz.GENERALIZED)
    state = dimensionless_state(config, 0.0)
    assert state.tau == 0.0
    assert state.lambda_ == 1.0
    assert state.tau_prime == state.xi
    assert state.a_const == state.xi


def test_state_takes_the_configured_potential():
    # the 1/r potential keeps A = xi, tau' = xi/sqrt(lam), c = 0 and lam^0 = 1
    # in every D; the Gauss law at D = 5 has A = 4 xi and lam^(D-3) = lam^2
    eta = 0.99
    lam = (1.0 - eta) * (1.0 + eta)
    coulomb = dimensionless_state(PhysicalConfig(dimension=5, ansatz=Ansatz.ONE_OVER_R), eta)
    assert coulomb.a_const == coulomb.xi
    assert math.isclose(coulomb.tau, coulomb.xi * eta / math.sqrt(lam), rel_tol=1e-15)
    assert (coulomb.c_const, coulomb.lambda_d3) == (0.0, 1.0)
    gauss = dimensionless_state(PhysicalConfig(dimension=5, ansatz=Ansatz.GENERALIZED), eta)
    assert gauss.a_const == 4.0 * gauss.xi and gauss.lambda_d3 == lam**2
    assert gauss.c_const > 0.0


@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 0.99997, 1.0 - 1e-9, -0.7])
def test_state_d4_gauss_law_takes_the_general_powers_exactly(eta, ell):
    # lam^0 and lam^1 take no product and no root, so tau' = A, c = K and lam^(D-3) = lam exactly
    state = dimensionless_state(PhysicalConfig(dimension=4, ell=ell, ansatz=Ansatz.GENERALIZED), eta)
    assert state.tau_prime == state.a_const
    assert state.c_const == state.k_value
    assert state.lambda_d3 == state.lambda_


def test_state_d5_against_closed_formulas():
    # direct evaluation of the tau/tau' definitions at D=5, M=1, xi=1, eta=0.6;
    # expected values recomputed with 40-digit arithmetic agree with the
    # decimals below to ~1e-39
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    config = PhysicalConfig(dimension=5, ansatz=Ansatz.GENERALIZED)
    state = dimensionless_state(config, 0.6, xi=1.0)
    assert math.isclose(state.lambda_, 0.64, rel_tol=1e-15)
    assert math.isclose(state.a_const, 4.0, rel_tol=1e-15)
    assert math.isclose(state.tau_prime, 3.2, rel_tol=1e-15)
    assert math.isclose(state.tau, 1.92, rel_tol=1e-15)
    eta, d = mpmath.mpf("0.6"), 5
    lam_sqrt = mpmath.sqrt(1 - eta * eta)
    tau_oracle = 2 ** (d - 3) * 1 * eta / lam_sqrt ** (4 - d)
    assert math.isclose(state.tau, float(tau_oracle), rel_tol=1e-15)


def test_state_ratio_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        d = int(rng.integers(3, 11))
        eta = float(rng.uniform(-0.999999, 0.999999))
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED)
        state = dimensionless_state(config, eta)
        # tau/tau' = eta to a few ulps
        assert abs(state.tau / state.tau_prime - eta) <= 4 * math.ulp(max(abs(eta), 1e-30))


def test_state_square_difference_identity_random():
    # tau'^2 - tau^2 = A^2 lam^(D-3), evaluated in the cancellation-free
    # grouping tau'^2 (1 - eta^2) (the literal float difference loses digits
    # as eta -> 1, which is a property of subtraction, not of the state)
    rng = np.random.default_rng(12)
    for _ in range(500):
        d = int(rng.integers(3, 11))
        eta = float(rng.uniform(-0.999999, 0.999999))
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED)
        state = dimensionless_state(config, eta)
        lhs = state.tau_prime * state.tau_prime * state.lambda_
        rhs = state.a_const * state.a_const * state.lambda_ ** (d - 3)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_state_recompute_is_deterministic():
    config = PhysicalConfig(dimension=7, ansatz=Ansatz.GENERALIZED)
    a = dimensionless_state(config, 0.87)
    b = dimensionless_state(config, 0.87)
    assert (a.tau, a.tau_prime, a.lambda_, a.a_const) == (b.tau, b.tau_prime, b.lambda_, b.a_const)


def test_state_rejects_eta_out_of_range():
    config = PhysicalConfig(dimension=3)
    for eta in (1.0, -1.0, 1.5):
        with pytest.raises(EtaOutOfRange):
            dimensionless_state(config, eta)


def test_reconstruct_fg_trivial_cases():
    phi = np.array([0.3, -1.2, 2.0])
    f, g = reconstruct_fg(phi, phi, 1.0, 0.0)
    assert np.allclose(f, 0.0) and np.allclose(g, 2.0 * phi)
    f, g = reconstruct_fg(phi, np.zeros(3), 1.0, 0.0)
    assert np.allclose(f, phi) and np.allclose(g, phi)
    f, g = reconstruct_fg([1.0], [-1.0], 5.0, 3.0)
    assert math.isclose(f[0], 2.0 * math.sqrt(8.0), rel_tol=1e-15)
    assert g[0] == 0.0


def test_reconstruct_fg_roundtrip():
    rng = np.random.default_rng(3)
    plus = rng.normal(size=50)
    minus = rng.normal(size=50)
    mass, energy = 1.0, 0.73
    f, g = reconstruct_fg(plus, minus, mass, energy)
    # invert the 2x2 map
    plus_back = 0.5 * (g / math.sqrt(mass - energy) + f / math.sqrt(mass + energy))
    minus_back = 0.5 * (g / math.sqrt(mass - energy) - f / math.sqrt(mass + energy))
    assert np.max(np.abs(plus_back - plus)) < 1e-13
    assert np.max(np.abs(minus_back - minus)) < 1e-13


def test_reconstruct_fg_errors():
    with pytest.raises(LengthMismatch):
        reconstruct_fg([1.0, 2.0], [1.0], 1.0, 0.0)
    with pytest.raises(EtaOutOfRange):
        reconstruct_fg([1.0], [1.0], 1.0, 1.0)


def test_radial_grid_nodes_and_step():
    grid = RadialGrid(rho_min=1e-6, rho_max=10.0, n_points=10001)
    nodes = grid.nodes()
    assert nodes[0] == grid.rho_min and nodes[-1] == grid.rho_max
    steps = np.diff(nodes)
    assert math.isclose(grid.step, (10.0 - 1e-6) / 10000, rel_tol=1e-15)
    assert np.allclose(steps, grid.step, rtol=1e-12)


@pytest.mark.parametrize("bad", [dict(rho_min=0.0, rho_max=1.0, n_points=32),
                                 dict(rho_min=1.0, rho_max=0.5, n_points=32),
                                 dict(rho_min=0.1, rho_max=1.0, n_points=8)])
def test_radial_grid_validation(bad):
    with pytest.raises(ValueError):
        RadialGrid(**bad)


def test_discrete_l2_norm_values():
    assert discrete_l2_norm([3.0, 4.0], 1.0) == 5.0
    assert math.isclose(discrete_l2_norm(np.full(100, 2.0), 0.01), 2.0, rel_tol=1e-15)
    assert discrete_l2_norm(np.zeros(5), 0.5) == 0.0
    values = np.array([0.3, -1.2, 2.0])
    assert math.isclose(discrete_l2_norm(-2.0 * values, 0.1),
                        2.0 * discrete_l2_norm(values, 0.1), rel_tol=1e-15)
    assert math.isclose(discrete_l2_norm(values, 0.4),
                        2.0 * discrete_l2_norm(values, 0.1), rel_tol=1e-15)


# ---------------------------------------------------------------------------
# public surface

DELETED_NAMES = (
    "DimensionlessState", "Direction", "NO_TURNING_POINT", "NoTurningPoint", "PropagationResult",
    "_boundary_seeds", "_maybe_scalar", "canonical_step", "coefficient_set", "coefficient_set_ansatz1",
    "generalized_step", "mismatch", "potential_energy", "propagate", "rho_of_r",
)


def test_public_surface_resolves_without_deleted_names():
    import dirac_numerov
    from dirac_numerov import coefficients, core, numerov, solver

    names = dirac_numerov.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(dirac_numerov, name) for name in names)
    assert not set(DELETED_NAMES) & set(names)
    for module in (dirac_numerov, coefficients, core, numerov, solver):
        assert not [name for name in DELETED_NAMES if hasattr(module, name)], module.__name__
    assert not hasattr(coefficients, "_BRANCHES") and not hasattr(numerov, "_generalized_p012")
    assert "weight_fn" not in coefficients.CoefficientSet.__dataclass_fields__
    assert "branch" not in coefficients.CoefficientSet.__dataclass_fields__
    # no production code needs the small-rho exponent; a test takes sqrt(gamma2)
    assert not hasattr(coefficients.CoefficientSet, "indicial_exponent")
    # the record holds only scalars; the fields and the factor are its methods
    for name in ("fields_fn", "integrating_factor_fn"):
        assert name not in coefficients.CoefficientSet.__dataclass_fields__
        assert callable(getattr(coefficients.CoefficientSet, name))
    # a trial's one record: the state is the coefficient set, and what
    # follows from its fields is derived, not stored
    assert isinstance(core.dimensionless_state(core.PhysicalConfig(dimension=5), 0.9),
                      coefficients.CoefficientSet)
    fields = coefficients.CoefficientSet.__dataclass_fields__
    assert "match_level" not in fields
    for name in ("turning_scale", "singular_power"):
        assert name not in fields
        assert isinstance(getattr(coefficients.CoefficientSet, name), property)
