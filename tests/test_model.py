import math
import warnings

import numpy as np
import pytest

from xxteleport.entanglement import thermal_concurrence
from xxteleport.linalg import hermitian_function
from xxteleport.model import (ModelParams, _hamiltonian, gibbs_state, gibbs_state_oracle_stack,
                              hyperbolic_weights)
from xxteleport.phase import better_than_classical
from xxteleport.teleport import average_fidelity

# The eigenbasis of H: |00>, |Psi+>, |Psi->, |11>, with energies B_m, J, -J, -B_m.
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)

PARAM_GRID = [ModelParams(j, b, t)
              for j in np.linspace(-2, 2, 10)
              for b in np.linspace(-2, 2, 10)
              for t in np.linspace(0.1, 5, 10)]


class TestModelParams:
    def test_zero_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            ModelParams(j=1.0, b_m=0.0, t=0.0)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            ModelParams(j=1.0, b_m=0.0, t=-1.0)

    @pytest.mark.parametrize("t", [5e-324, 1e-310])
    def test_non_finite_beta_rejected(self, t):
        with pytest.raises(ValueError, match="1/t overflows"):
            ModelParams(j=1.0, b_m=0.0, t=t)

    @pytest.mark.parametrize("j,b_m,t", [(1e200, 0.0, 1e-200), (0.0, -1e200, 1e-200),
                                         (2.0, 0.0, 1e-308), (-1.0, 0.5, 1e-308)])
    def test_beta_energy_overflow_rejected(self, j, b_m, t):
        with pytest.raises(ValueError, match="overflows"):
            ModelParams(j=j, b_m=b_m, t=t)

    @pytest.mark.parametrize("field", ["j", "b_m", "t"])
    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_rejected(self, field, flag):
        values = {"j": 1.0, "b_m": 0.0, "t": 1.0, field: flag}
        with pytest.raises(ValueError, match="bool"):
            ModelParams(**values)

    def test_coldest_accepted_point_is_finite(self):
        # 2*beta*|j| = 1e308 is still finite, so the point is valid and every
        # closed form reaches its ground-state limit without a warning
        p = ModelParams(j=0.5, b_m=0.25, t=1e-308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_concurrence(p) == 1.0
            assert average_fidelity(p).average == 1.0
            assert better_than_classical(p)


def eigenpairs(p: ModelParams):
    return [(p.b_m, KET_00), (p.j, PSI_PLUS), (-p.j, PSI_MINUS), (-p.b_m, KET_11)]


def partition_function(p: ModelParams) -> float:
    """Z = 2 cosh(beta B_m) + 2 cosh(beta J) from the scaled hyperbolic weights."""
    ch_b, ch_j, _, scale = hyperbolic_weights(p.j, p.b_m, p.t)
    return float(2.0 * (ch_b + ch_j) / scale)


class TestHamiltonian:
    """The H that the matrix-exponential oracle exponentiates."""

    def test_pure_zeeman(self):
        h = _hamiltonian(0.0, 1.0)
        assert np.abs(h - np.diag([1.0, 0.0, 0.0, -1.0])).max() < 1e-15

    def test_pure_coupling(self):
        # expanding the two kron terms by hand leaves J only at (1,2) and (2,1)
        h = _hamiltonian(1.0, 0.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.abs(h - expected).max() < 1e-15

    def test_hermitian(self):
        for p in PARAM_GRID[::37]:
            h = _hamiltonian(p.j, p.b_m)
            assert np.abs(h - h.conj().T).max() < 1e-15

    def test_spectrum(self):
        h = _hamiltonian(1.0, 0.5)
        assert np.allclose(np.linalg.eigvalsh(h), [-1.0, -0.5, 0.5, 1.0], atol=1e-12)


class TestAnalyticSpectrum:
    """H has the eigenbasis and energies the module docstring states."""

    def test_eigenpair_identity(self):
        for p in PARAM_GRID[::23]:
            h = _hamiltonian(p.j, p.b_m)
            for energy, vec in eigenpairs(p):
                assert np.abs(h @ vec - energy * vec).max() < 1e-12

    def test_values_no_field(self):
        vals = np.linalg.eigvalsh(_hamiltonian(1.0, 0.0))
        assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0], atol=1e-15)

    def test_values_general(self):
        vals = np.linalg.eigvalsh(_hamiltonian(2.0, 3.0))
        assert np.allclose(vals, [-3.0, -2.0, 2.0, 3.0], atol=1e-14)


class TestPartitionFunction:
    """The normalisation 2 (cosh bB + cosh bJ) that every closed form divides by."""

    def test_high_temperature_limit(self):
        z = partition_function(ModelParams(j=1.0, b_m=0.5, t=1e12))
        assert abs(z - 4.0) < 1e-9

    def test_scalar_value(self):
        z = partition_function(ModelParams(j=1.0, b_m=0.5, t=1.0))
        assert abs(z - (2 * math.cosh(0.5) + 2 * math.cosh(1.0))) < 1e-12

    def test_sign_flip_symmetry(self):
        for p in PARAM_GRID[::41]:
            flipped = ModelParams(j=-p.j, b_m=-p.b_m, t=p.t)
            assert partition_function(p) == partition_function(flipped)

    def test_nondecreasing_in_beta(self):
        # Z(beta) grows with beta, strictly unless J = B_m = 0
        ts = np.linspace(2.0, 0.1, 40)
        zs = [partition_function(ModelParams(j=1.0, b_m=0.3, t=t)) for t in ts]
        assert np.all(np.diff(zs) > 0)
        zs_free = [partition_function(ModelParams(j=0.0, b_m=0.0, t=t)) for t in ts]
        assert np.all(np.diff(zs_free) == 0)


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        rho = gibbs_state(ModelParams(j=1.0, b_m=0.5, t=1e15)).rho
        assert np.abs(rho - np.eye(4) / 4).max() < 1e-12

    def test_ground_state_limit(self):
        rho = gibbs_state(ModelParams(j=1.0, b_m=0.0, t=0.01)).rho
        singlet = np.outer(PSI_MINUS, PSI_MINUS.conj())
        assert np.abs(rho - singlet).max() < 1e-12

    def test_matches_matrix_exponential(self):
        for p in PARAM_GRID:
            beta = p.beta
            em = hermitian_function(_hamiltonian(p.j, p.b_m), lambda x: np.exp(-beta * x))
            oracle = em / np.trace(em).real
            assert np.abs(gibbs_state(p).rho - oracle).max() < 1e-10

    def test_populations(self):
        p = ModelParams(j=1.0, b_m=0.5, t=1.0)
        z = 2 * math.cosh(0.5) + 2 * math.cosh(1.0)
        rho = gibbs_state(p).rho
        assert abs(rho[0, 0].real - math.exp(-0.5) / z) < 1e-12
        assert abs(rho[3, 3].real - math.exp(0.5) / z) < 1e-12
        assert abs((PSI_PLUS.conj() @ rho @ PSI_PLUS).real - math.exp(-1.0) / z) < 1e-12
        assert abs((PSI_MINUS.conj() @ rho @ PSI_MINUS).real - math.exp(1.0) / z) < 1e-12

    def test_partition_function_invariant(self):
        # the Boltzmann factor of |00> over Z is its population
        for p in PARAM_GRID[::29]:
            rho = gibbs_state(p).rho
            want = math.exp(-p.beta * p.b_m) / partition_function(p)
            assert abs(rho[0, 0].real - want) < 1e-12

    def test_diagonal_structure(self):
        rho = gibbs_state(ModelParams(j=1.3, b_m=0.7, t=0.8)).rho
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[3, 3] = True
        mask[1:3, 1:3] = True
        assert np.abs(rho[~mask]).max() == 0.0

    def test_population_ordering(self):
        for p in PARAM_GRID:
            if p.j <= 0:
                continue
            rho = gibbs_state(p).rho
            pop_minus = (PSI_MINUS.conj() @ rho @ PSI_MINUS).real
            pop_plus = (PSI_PLUS.conj() @ rho @ PSI_PLUS).real
            assert pop_minus > pop_plus

    def test_field_flip_swaps_corners(self):
        for p in PARAM_GRID[::17]:
            rho = gibbs_state(p).rho
            flipped = gibbs_state(ModelParams(j=p.j, b_m=-p.b_m, t=p.t)).rho
            swapped = rho.copy()
            swapped[0, 0], swapped[3, 3] = rho[3, 3], rho[0, 0]
            assert np.abs(flipped - swapped).max() < 1e-15

    def test_extreme_beta_does_not_overflow(self):
        rho = gibbs_state(ModelParams(j=1.0, b_m=0.5, t=1e-6)).rho
        assert np.all(np.isfinite(rho))
        assert abs(np.trace(rho).real - 1.0) < 1e-12


class TestGibbsOracle:
    def test_free_hamiltonian(self):
        rho = gibbs_state_oracle_stack([ModelParams(j=0.0, b_m=0.0, t=1.0)])[0]
        assert np.abs(rho - np.eye(4) / 4).max() < 1e-12

    def test_normalization(self):
        rho = gibbs_state_oracle_stack([ModelParams(j=1.0, b_m=1.0, t=1.0)])[0]
        assert abs(np.trace(rho).real - 1.0) < 1e-12

    def test_grid_agreement(self):
        params = PARAM_GRID[::7]
        for p, rho in zip(params, gibbs_state_oracle_stack(params)):
            assert np.abs(gibbs_state(p).rho - rho).max() < 1e-10

    def test_beta_range_guard(self):
        with pytest.raises(ValueError):
            gibbs_state_oracle_stack([ModelParams(j=1.0, b_m=0.0, t=1e-4)])
