import math

import numpy as np
import pytest

from dirac_numerov import (
    Ansatz,
    PhysicalConfig,
    analytic_energy,
    analytic_ground_wavefunction_d3,
    k_value,
)
from dirac_numerov.core import FINE_STRUCTURE_CONSTANT as ALPHA
from dirac_numerov.errors import SupercriticalCoupling, UnsupportedCase

# reference ground-state energy ratios for the 1/r relativistic problem,
# D = 3..9 (15-digit published values)
REFERENCE_RATIOS = {
    3: 0.999973373968532,
    4: 0.999988166295761,
    5: 0.999993343558597,
    6: 0.999995739882606,
    7: 0.999997041587069,
    8: 0.999997826472985,
    9: 0.999998335893803,
}


def _cfg(d):
    return PhysicalConfig(dimension=d, ell=0, ansatz=Ansatz.ONE_OVER_R)


@pytest.mark.parametrize("d,expected", sorted(REFERENCE_RATIOS.items()))
def test_reference_ratios(d, expected):
    level = analytic_energy(_cfg(d))
    assert abs(level.energy_ratio - expected) / expected < 1e-12


def test_ground_state_simplified_form():
    # at n_r = 0 the closed form collapses to sqrt(1 - xi^2/K^2); both
    # evaluations must agree to a couple of ulps
    for d in range(3, 10):
        level = analytic_energy(_cfg(d))
        k = abs(k_value(_cfg(d)))
        simple = math.sqrt(1.0 - (ALPHA / k) ** 2)
        assert abs(level.energy_ratio - simple) <= 2 * math.ulp(simple)


def test_weak_coupling_limit():
    level = analytic_energy(_cfg(5), n_r=2, xi=1e-12)
    assert abs(level.energy_ratio - 1.0) < 1e-20


def test_excited_levels_increase():
    ratios = [analytic_energy(_cfg(3), n_r=n).energy_ratio for n in range(4)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_supercritical_coupling():
    with pytest.raises(SupercriticalCoupling):
        analytic_energy(_cfg(3), xi=2.0)


def test_rejects_gauss_law_potential():
    with pytest.raises(UnsupportedCase):
        analytic_energy(PhysicalConfig(dimension=3, ansatz=Ansatz.GENERALIZED))


def test_nonrelativistic_consistency():
    # binding M (1 - E/M) approaches the Bohr value xi^2 M / 2 to relative xi^2
    level = analytic_energy(_cfg(3))
    binding = 1.0 - level.energy_ratio
    bohr = ALPHA**2 / 2.0
    assert abs(binding - bohr) / bohr < ALPHA**2


# ---------------------------------------------------------------------------
# closed-form wavefunction


def test_ground_wavefunction_shape():
    config = _cfg(3)
    rho = np.linspace(1e-6, 40.0, 40001)
    phi = analytic_ground_wavefunction_d3(rho, config)
    gamma = analytic_energy(config).gamma_exp
    # single interior maximum at rho = 2 gamma
    peak = rho[np.argmax(phi)]
    assert abs(peak - 2.0 * gamma) <= 2.0 * (rho[1] - rho[0])
    assert np.sum(np.diff(np.sign(np.diff(phi))) != 0) == 1
    assert phi[0] < 1e-4  # vanishes toward the origin
    step = rho[1] - rho[0]
    assert math.isclose(step * float(np.dot(phi, phi)), 1.0, rel_tol=1e-12)


def test_ground_wavefunction_rejects_other_cases():
    with pytest.raises(UnsupportedCase):
        analytic_ground_wavefunction_d3(np.linspace(0.1, 1, 16), _cfg(4))
    with pytest.raises(UnsupportedCase):
        analytic_ground_wavefunction_d3(
            np.linspace(0.1, 1, 16), PhysicalConfig(dimension=3, ell=1, ansatz=Ansatz.ONE_OVER_R)
        )
    with pytest.raises(ValueError):
        analytic_ground_wavefunction_d3(np.array([0.1, 0.3, 0.4]), _cfg(3))
