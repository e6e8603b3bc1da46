"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a PASS line with the measured figures when it succeeds, so a
verbose run doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    PhysicalConfig,
    SolverSettings,
    analytic_energy,
    analytic_ground_wavefunction_d3,
    build_coefficients,
    dimensionless_state,
    eigenfunction,
    scheme_report,
    solve_ground_state,
)
from dirac_numerov.numerov import Scheme, _canonical_factors, _numerov_sweep_lr, _three_point_sum

# published 15-digit closed-form energy ratios and rounded binding energies
# (eV) for the 1/r problem, D = 3..9, l = 0
PUBLISHED_RATIOS = {
    3: 0.999973373968532,
    4: 0.999988166295761,
    5: 0.999993343558597,
    6: 0.999995739882606,
    7: 0.999997041587069,
    8: 0.999997826472985,
    9: 0.999998335893803,
}
PUBLISHED_EPS_EV = {3: -13.606, 4: -6.047, 5: -3.401, 6: -2.177,
                    7: -1.512, 8: -1.111, 9: -0.850}

RATIO_TOL = 5e-8
EPS_REL_TOL = 0.01
PER_DIMENSION_BUDGET_S = 10.0
NEGATIVE_RESULT_BUDGET_S = 60.0


def test_criterion_1_table_reproduction(solve_cached):
    worst_ratio = 0.0
    worst_eps = 0.0
    slowest = 0.0
    for d in range(3, 10):
        t0 = time.perf_counter()
        result = solve_cached(d, Ansatz.ONE_OVER_R)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert result.found, f"D={d}: ground state not found"
        level = analytic_energy(PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R))
        ratio_err = abs(result.eta_star - level.energy_ratio)
        eps_err = abs(result.epsilon_ev - PUBLISHED_EPS_EV[d]) / abs(PUBLISHED_EPS_EV[d])
        worst_ratio = max(worst_ratio, ratio_err)
        worst_eps = max(worst_eps, eps_err)
        assert ratio_err <= RATIO_TOL, f"D={d}: |dE/M| = {ratio_err:.3e}"
        assert eps_err <= EPS_REL_TOL, f"D={d}: eps rel err = {eps_err:.3e}"
        assert elapsed < PER_DIMENSION_BUDGET_S, f"D={d}: took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: table reproduced for D=3..9; worst |dE/M| = "
          f"{worst_ratio:.2e} (tol {RATIO_TOL}), worst eps rel err = {worst_eps:.2e} "
          f"(tol {EPS_REL_TOL}), slowest dimension {slowest:.1f}s (budget "
          f"{PER_DIMENSION_BUDGET_S}s)")


def test_criterion_2_analytic_column_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for d, published in PUBLISHED_RATIOS.items():
        level = analytic_energy(PhysicalConfig(dimension=d, ansatz=Ansatz.ONE_OVER_R))
        worst = max(worst, abs(level.energy_ratio - published) / published)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"worst relative deviation {worst:.3e}"
    print(f"\nACCEPTANCE 2 PASS: all seven closed-form ratios reproduced, worst "
          f"relative deviation {worst:.2e} (tol 1e-12) in {1000 * elapsed:.1f} ms")


def test_criterion_3_wavefunction_overlay(solve_cached):
    t0 = time.perf_counter()
    config = PhysicalConfig(dimension=3, ell=0, ansatz=Ansatz.ONE_OVER_R)
    result = solve_cached(3, Ansatz.ONE_OVER_R)
    wave = eigenfunction(config, SolverSettings(), result.eta_star)
    nodes = wave.grid.nodes()
    overlay = analytic_ground_wavefunction_d3(nodes, config)
    window = nodes <= 20.0
    linf = float(np.max(np.abs(wave.phi_plus[window] - overlay[window])))
    elapsed = time.perf_counter() - t0
    assert linf <= 1e-3, f"L-inf = {linf:.3e}"
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 3 PASS: D=3 ground-state profile matches the closed form, "
          f"L-inf = {linf:.2e} over rho <= 20 (tol 1e-3), {elapsed:.1f}s")


def test_criterion_4_negative_result_robustness():
    t0 = time.perf_counter()
    base = SolverSettings()
    variants = {
        "default": base,
        "double-resolution": SolverSettings(scan_points=2 * base.scan_points),
        "wide-window": SolverSettings(eta_window=(0.01, 1.0 - 1e-12)),
        "refined-grid": SolverSettings(
            grid_a=base.grid_a / 2.0, grid_b_scale=2.0, grid_delta=base.grid_delta / 2.0
        ),
    }
    for d in range(4, 11):
        config = PhysicalConfig(dimension=d, ell=0, ansatz=Ansatz.GENERALIZED)
        for name, settings in variants.items():
            result = solve_ground_state(config, settings)
            assert not result.found, f"D={d} [{name}]: spurious bound state"
            assert result.scan_trace, f"D={d} [{name}]: empty trace"
            assert result.verdict_reason, f"D={d} [{name}]: missing reason"
    elapsed = time.perf_counter() - t0
    assert elapsed < NEGATIVE_RESULT_BUDGET_S, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4 PASS: certified not-found for D=4..10 under the Gauss-law "
          f"potential, stable across {len(variants)} scan/grid variants, "
          f"{elapsed:.1f}s total (budget {NEGATIVE_RESULT_BUDGET_S}s)")


def test_criterion_5_d3_ansatz_equivalence(solve_cached):
    one_over_r = solve_cached(3, Ansatz.ONE_OVER_R)
    gauss_law = solve_cached(3, Ansatz.GENERALIZED)
    assert one_over_r.found and gauss_law.found
    gap = abs(one_over_r.eta_star - gauss_law.eta_star)
    assert gap <= 1e-10, f"eta gap = {gap:.3e}"
    print(f"\nACCEPTANCE 5 PASS: D=3 ground states of the two Coulomb conventions "
          f"agree, |d eta| = {gap:.2e} (tol 1e-10)")


def test_criterion_6_fourth_order_signature():
    # chi'' + (1 - rho^2) chi = 0 with closed form exp(-rho^2/2); halving the
    # step three times must contract the max-norm error by 12..20 each time
    def run(h):
        n = int(round(2.0 / h)) + 1
        x = np.linspace(0.0, 2.0, n)
        exact = np.exp(-x * x / 2.0)
        buf = [0.0] * n
        buf[0], buf[1] = float(exact[0]), float(exact[1])
        f = _canonical_factors(1.0 - x * x, h)
        _numerov_sweep_lr(f[:-2], f[2:], _three_point_sum(1.0 - x * x, h), buf, 1, n - 1)
        return float(np.max(np.abs(np.asarray(buf) - exact)))

    errors = [run(h) for h in (0.08, 0.04, 0.02, 0.01)]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(12.0 < r < 20.0 for r in ratios), f"ratios = {ratios}"
    print(f"\nACCEPTANCE 6 PASS: fourth-order signature, error ratios per halving = "
          f"{', '.join(f'{r:.1f}' for r in ratios)} (window [12, 20])")


def test_criterion_7_scheme_cross_validation(solve_cached):
    worst = 0.0
    for d in range(3, 10):
        canonical = solve_cached(d, Ansatz.ONE_OVER_R, scheme=Scheme.CANONICAL)
        generalized = solve_cached(d, Ansatz.ONE_OVER_R, scheme=Scheme.GENERALIZED)
        assert canonical.found and generalized.found, f"D={d}"
        gap = abs(canonical.eta_star - generalized.eta_star)
        worst = max(worst, gap)
        assert gap <= 1e-8, f"D={d}: scheme gap = {gap:.3e}"
    report = scheme_report()
    assert report["text"], "diagnostic report must be produced"
    assert 1.5 < report["orders"]["generalized"] < 2.5
    print(f"\nACCEPTANCE 7 PASS: canonical and printed-coefficient schemes agree on "
          f"eta* to {worst:.2e} (tol 1e-8) for D=3..9; diagnostic report confirms "
          f"the printed coefficients run at order "
          f"{report['orders']['generalized']:.2f} beside the canonical "
          f"{report['orders']['canonical']:.2f}, and the flipped-sign variant is "
          f"inconsistent (order {report['orders']['generalized_flipped']:.2f})")


def test_criterion_8_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    # scalar identities on 10^4 random (D, eta) draws
    worst_square = 0.0
    worst_ratio = 0.0
    for _ in range(10_000):
        d = int(rng.integers(3, 11))
        eta = float(rng.uniform(-0.999999, 0.999999))
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED)
        state = dimensionless_state(config, eta)
        rhs = state.a_const**2 * state.lambda_ ** (d - 3)
        square = abs(state.tau_prime**2 * state.lambda_ - rhs) / rhs
        worst_square = max(worst_square, square)
        ratio = abs(state.tau / state.tau_prime - eta)
        worst_ratio = max(worst_ratio, ratio / math.ulp(max(abs(eta), 1e-30)))
    assert worst_square <= 1e-12
    assert worst_ratio <= 4.0

    # potential identity v q rho^(D-2) = s on random coefficient sets
    worst_vqs = 0.0
    rho = np.geomspace(1e-4, 60.0, 200)
    for _ in range(50):
        d = int(rng.integers(3, 11))
        eta = float(rng.uniform(0.3, 0.9999))
        config = PhysicalConfig(dimension=d, ansatz=Ansatz.GENERALIZED)
        coeffs = build_coefficients(dimensionless_state(config, eta), config)
        fields = coeffs.fields_fn(rho)
        lhs = fields["v"] * fields["q"] * rho ** (d - 2)
        s = fields["s"]
        worst_vqs = max(worst_vqs, float(np.max(np.abs(lhs - s) / np.abs(s))))
    assert worst_vqs <= 1e-12

    # analytic p' against centered differences: second-order decay in h
    config = PhysicalConfig(dimension=6, ansatz=Ansatz.GENERALIZED)
    coeffs = build_coefficients(dimensionless_state(config, 0.995), config)
    probes = rng.uniform(0.5, 20.0, size=20)
    errors = []
    for h in (1e-2, 1e-3, 1e-4):
        fd = (coeffs.fields_fn(probes + h)["p"] - coeffs.fields_fn(probes - h)["p"]) / (2.0 * h)
        p_prime = coeffs.fields_fn(probes)["p_prime"]
        errors.append(float(np.max(np.abs(fd - p_prime) / np.abs(p_prime))))
    assert errors[0] / errors[1] > 30.0 and errors[1] / errors[2] > 30.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 8 PASS: identity suite over 10^4 draws; worst square-"
          f"difference deviation {worst_square:.2e} (tol 1e-12), tau/tau' within "
          f"{worst_ratio:.1f} ulp (tol 4), potential identity within {worst_vqs:.2e} "
          f"(tol 1e-12), p' finite-difference ratios "
          f"{errors[0] / errors[1]:.0f}, {errors[1] / errors[2]:.0f} (O(h^2)); "
          f"{elapsed:.1f}s")
