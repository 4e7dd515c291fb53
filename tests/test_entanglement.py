import math

import numpy as np
import pytest

from xxteleport.entanglement import (AlwaysSeparableError, concurrence,
                                     thermal_concurrence,
                                     zero_entanglement_temperature)
from xxteleport.model import ModelParams, gibbs_state
from xxteleport.verify import random_density

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def closed_form(j, b_m, t):
    """Independent scalar evaluation of the thermal concurrence."""
    beta = 1.0 / t
    return max((abs(math.sinh(beta * j)) - 1) / (math.cosh(beta * b_m) + math.cosh(beta * j)), 0.0)


class TestConcurrence:
    def test_singlet_maximal(self):
        rho = np.outer(PSI_MINUS, PSI_MINUS.conj())
        assert abs(concurrence(rho).value - 1.0) < 1e-12

    def test_maximally_mixed_separable(self):
        assert concurrence(np.eye(4) / 4).value == 0.0

    def test_thermal_state_scalar_oracle(self):
        got = concurrence(gibbs_state(ModelParams(j=1.0, b_m=0.0, t=1.0)).rho).value
        want = (math.sinh(1.0) - 1.0) / (1.0 + math.cosh(1.0))
        assert abs(got - want) < 1e-10
        assert abs(want - 0.068893) < 1e-6

    def test_pure_state_formula(self):
        # for a pure two-qubit state (a,b,c,d) the concurrence is 2|ad - bc|
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            got = concurrence(np.outer(v, v.conj())).value
            assert abs(got - 2 * abs(v[0] * v[3] - v[1] * v[2])) < 1e-10

    def test_range_on_random_mixed_states(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            val = concurrence(random_density(rng)).value
            assert 0.0 <= val <= 1.0

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            concurrence(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            concurrence(np.eye(2) / 2)  # wrong dimension


class TestThermalConcurrence:
    def test_zero_above_critical(self):
        t_c = zero_entanglement_temperature(1.0)
        for b_m in (0.0, 0.5, 1.0, 2.0):
            assert thermal_concurrence(ModelParams(j=1.0, b_m=b_m, t=1.2 * t_c)) == 0.0

    def test_ground_state_limit(self):
        assert abs(thermal_concurrence(ModelParams(j=1.0, b_m=0.5, t=0.01)) - 1.0) < 1e-12

    def test_matches_general_concurrence(self):
        for j in np.linspace(-2, 2, 10):
            for b_m in np.linspace(-2, 2, 10):
                for t in np.linspace(0.1, 5, 10):
                    p = ModelParams(j, b_m, t)
                    want = concurrence(gibbs_state(p).rho).value
                    assert abs(thermal_concurrence(p) - want) < 1e-10

    def test_scalar_oracle(self):
        for j, b_m, t in [(1.0, 0.0, 1.0), (1.5, 0.7, 0.4), (-1.2, 0.3, 0.9)]:
            p = ModelParams(j, b_m, t)
            assert abs(thermal_concurrence(p) - closed_form(j, b_m, t)) < 1e-14

    def test_sign_flip_invariance_exact(self):
        for j in (0.5, 1.0, 2.0):
            for b_m in (0.0, 0.4, 1.5):
                for t in (0.2, 1.0, 3.0):
                    c = thermal_concurrence(ModelParams(j, b_m, t))
                    assert thermal_concurrence(ModelParams(-j, b_m, t)) == c
                    assert thermal_concurrence(ModelParams(j, -b_m, t)) == c
                    assert thermal_concurrence(ModelParams(-j, -b_m, t)) == c

    def test_vanishing_point_field_independent(self):
        t_c = zero_entanglement_temperature(1.0)
        for b_m in np.linspace(0.0, 3.0, 7):
            assert thermal_concurrence(ModelParams(1.0, b_m, t_c * (1 + 1e-6))) == 0.0
            assert thermal_concurrence(ModelParams(1.0, b_m, t_c * (1 - 1e-6))) > 0.0

    def test_monotone_in_temperature(self):
        for b_m in (0.0, 0.5):
            ts = np.linspace(0.05, 2.0, 60)
            cs = [thermal_concurrence(ModelParams(1.0, b_m, t)) for t in ts]
            assert np.all(np.diff(cs) <= 0)


class TestZeroEntanglementTemperature:
    def test_reference_value(self):
        assert abs(zero_entanglement_temperature(1.0) - 1.13459) < 1e-5

    def test_linear_in_coupling(self):
        assert abs(zero_entanglement_temperature(2.0) - 2.26918) < 2e-5
        assert zero_entanglement_temperature(2.0) == 2 * zero_entanglement_temperature(1.0)

    def test_ferromagnetic_same(self):
        assert zero_entanglement_temperature(-1.0) == zero_entanglement_temperature(1.0)

    def test_closed_form(self):
        assert zero_entanglement_temperature(1.0) == 1.0 / math.log(1 + math.sqrt(2))

    def test_bisection_cross_check(self):
        # independently solve sinh(J/T) = 1 for T
        j = 1.0
        lo, hi = 0.5, 3.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if math.sinh(j / mid) > 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(zero_entanglement_temperature(j) - 0.5 * (lo + hi)) < 1e-10

    def test_zero_coupling_rejected(self):
        with pytest.raises(AlwaysSeparableError):
            zero_entanglement_temperature(0.0)

    @pytest.mark.parametrize("j", [math.nan, math.inf, -math.inf])
    def test_non_finite_coupling_rejected(self, j):
        with pytest.raises(ValueError, match=rf"^j must be finite, got {j}$"):
            zero_entanglement_temperature(j)

    def test_bool_coupling_rejected(self):
        with pytest.raises(ValueError, match=r"^j must be a number, not a bool$"):
            zero_entanglement_temperature(True)
