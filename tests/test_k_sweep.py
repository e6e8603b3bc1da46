"""1/r ground states over K = (2l + D - 1)/2 against the closed form, under both schemes.

At large K the first steps of the recurrence do not resolve the solution
near the cutoff (h^2 (gamma^2 - 1/4)/(12 rho^2) > 1 makes A and C negative),
and the outward solution can flip sign there. The node check must not count
that flip: every case here is the n_r = 0 level and must be found.
"""

import pytest

from dirac_numerov import Ansatz, PhysicalConfig, SolverSettings, analytic_energy, solve_ground_state
from dirac_numerov.numerov import Scheme

# D = 3 at l = 0, 3, ..., 15 and D = 7, 11, ..., 31 at l = 0: K = 1, 4, ..., 16 and 3, 5, ..., 15
_CASES = [(3, ell) for ell in range(0, 16, 3)] + [(d, 0) for d in range(7, 32, 4)]


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("d, ell", _CASES)
def test_one_over_r_ground_state_over_k(d, ell, scheme):
    config = PhysicalConfig(dimension=d, ell=ell, ansatz=Ansatz.ONE_OVER_R)
    result = solve_ground_state(config, SolverSettings(scheme=scheme))
    assert result.found, result.verdict_reason
    assert abs(result.eta_star - analytic_energy(config).energy_ratio) <= 5e-8
