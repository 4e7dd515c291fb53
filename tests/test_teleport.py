import math
import re

import numpy as np
import pytest

from xxteleport.model import ModelParams, gibbs_state
from xxteleport.teleport import (BELL_PROJECTORS, PureQubit, apply_channel, average_fidelity,
                                 bell_weights, channel_fidelity_stack, fidelity_from_weights,
                                 mc_average_fidelity, output_fidelity, protocol_oracle,
                                 quadrature_average_fidelity_stack)
from xxteleport.verify import random_density, random_pure_qubit

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)

# singlet density matrix with exact dyadic entries
SINGLET = np.zeros((4, 4), dtype=complex)
SINGLET[1, 1] = SINGLET[2, 2] = 0.5
SINGLET[1, 2] = SINGLET[2, 1] = -0.5
SINGLET.flags.writeable = False


def closed_form_average(j, b_m, t):
    """Independent scalar evaluation of the average fidelity."""
    beta = 1.0 / t
    return ((math.cosh(beta * b_m) + 2 * math.cosh(beta * j) + math.sinh(beta * j))
            / (3 * (math.cosh(beta * b_m) + math.cosh(beta * j))))


def ket(psi: PureQubit) -> np.ndarray:
    return np.array([math.cos(psi.theta / 2),
                     complex(math.cos(psi.phi), math.sin(psi.phi)) * math.sin(psi.theta / 2)])


def density(psi: PureQubit) -> np.ndarray:
    return np.outer(ket(psi), ket(psi).conj())


def channel_fidelity(rho, psi: PureQubit) -> float:
    return float(channel_fidelity_stack(rho[None], [psi])[0])


def quadrature_average(rho) -> float:
    return float(quadrature_average_fidelity_stack(rho[None])[0])


def closed_form_pointwise(j, b_m, t, theta):
    beta = 1.0 / t
    s2 = math.sin(theta) ** 2
    num = (2 * s2 * math.cosh(beta * b_m)
           + (3 + math.cos(2 * theta)) * math.cosh(beta * j)
           + 2 * s2 * math.sinh(beta * j))
    return num / (4 * (math.cosh(beta * b_m) + math.cosh(beta * j)))


class TestPureQubit:
    def test_unit_norm(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            psi = random_pure_qubit(rng)
            assert abs(np.linalg.norm(ket(psi)) - 1.0) < 1e-14

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            PureQubit(theta=-0.1)
        with pytest.raises(ValueError):
            PureQubit(theta=np.pi + 0.1)

    def test_phi_reduced(self):
        assert PureQubit(theta=1.0, phi=2 * np.pi).phi == 0.0
        assert 0.0 <= PureQubit(theta=1.0, phi=7.0).phi < 2 * np.pi

    @pytest.mark.parametrize("phi", [-1e-17, -2e-16, -5e-324])
    def test_tiny_negative_phi_maps_to_zero(self, phi):
        # phi % 2pi rounds up to 2pi itself here, outside [0, 2pi)
        assert PureQubit(theta=1.0, phi=phi).phi == 0.0

    @pytest.mark.parametrize("theta,phi,name", [(True, 0.0, "theta"), (1.0, True, "phi"),
                                                (np.True_, 0.0, "theta")],
                             ids=["theta", "phi", "numpy-theta"])
    def test_bool_angles_rejected(self, theta, phi, name):
        with pytest.raises(ValueError, match=rf"^{name} must be a number, not a bool$"):
            PureQubit(theta=theta, phi=phi)

    def test_in_range_phi_keeps_its_bits(self):
        rng = np.random.default_rng(19)
        for phi in [0.0, np.nextafter(2 * np.pi, 0.0), *rng.uniform(0.0, 2 * np.pi, 200)]:
            assert PureQubit(theta=1.0, phi=float(phi)).phi == phi


class TestBellProjectors:
    def test_projector_properties(self):
        assert BELL_PROJECTORS.shape == (4, 4, 4)
        assert not BELL_PROJECTORS.flags.writeable
        for e in BELL_PROJECTORS:
            assert np.abs(e - e.conj().T).max() < 1e-12
            assert np.abs(e @ e - e).max() < 1e-12

    def test_completeness(self):
        total = BELL_PROJECTORS.sum(axis=0)
        assert np.abs(total - np.eye(4)).max() < 1e-12

    def test_mutually_orthogonal(self):
        es = BELL_PROJECTORS
        for i in range(4):
            for k in range(i + 1, 4):
                assert np.abs(es[i] @ es[k]).max() < 1e-12

    def test_match_ket_outer_products(self):
        for e, ket in zip(BELL_PROJECTORS,
                          (PSI_MINUS, PHI_MINUS, PHI_PLUS, PSI_PLUS)):
            assert np.abs(e - np.outer(ket, ket.conj())).max() < 1e-15


class TestBellWeights:
    def test_singlet(self):
        assert np.allclose(bell_weights(SINGLET), (1, 0, 0, 0), atol=1e-12)

    def test_maximally_mixed(self):
        assert np.allclose(bell_weights(np.eye(4) / 4), (0.25,) * 4, atol=1e-15)

    def test_thermal_scalar_oracle(self):
        z = 2 * math.cosh(0.5) + 2 * math.cosh(1.0)
        w = bell_weights(gibbs_state(ModelParams(j=1.0, b_m=0.5, t=1.0)).rho)
        assert isinstance(w, tuple) and all(isinstance(x, float) for x in w)
        assert abs(w[0] - math.e / z) < 1e-12
        assert abs(w[0] - 0.508907) < 1e-6
        assert abs(w[3] - math.exp(-1.0) / z) < 1e-12
        assert abs(w[1] - math.cosh(0.5) / z) < 1e-12
        assert w[1] == w[2]

    def test_sum_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            assert abs(sum(bell_weights(random_density(rng))) - 1.0) < 1e-12

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            bell_weights(2 * np.eye(4))


class TestApplyChannel:
    def test_singlet_is_identity_channel(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            psi = random_pure_qubit(rng)
            assert np.abs(apply_channel(SINGLET, psi) - density(psi)).max() < 1e-12

    def test_maximally_mixed_depolarizes(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            psi = random_pure_qubit(rng)
            assert np.abs(apply_channel(np.eye(4) / 4, psi) - np.eye(2) / 2).max() < 1e-15

    def test_trace_preserving(self):
        rng = np.random.default_rng(24)
        for _ in range(200):
            out = apply_channel(random_density(rng), random_pure_qubit(rng))
            assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_matches_pointwise_closed_form(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = ModelParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 5))
            psi = random_pure_qubit(rng)
            got = channel_fidelity(gibbs_state(p).rho, psi)
            assert abs(got - output_fidelity(p, psi.theta)) < 1e-12

    def test_bloch_identity_matches_channel(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            rho = random_density(rng)
            psi = random_pure_qubit(rng)
            w = np.asarray(bell_weights(rho))
            got = fidelity_from_weights(w, math.cos(psi.theta), psi.phi)
            assert abs(got - channel_fidelity(rho, psi)) < 1e-12


class TestOutputFidelity:
    def test_pole_state_reduction(self):
        # at theta = 0 the formula collapses to cosh(bJ)/(cosh(bB) + cosh(bJ))
        for j, b_m, t in [(1.0, 0.5, 1.0), (2.0, 0.3, 0.7), (-1.0, 1.0, 2.0)]:
            p = ModelParams(j, b_m, t)
            beta = 1.0 / t
            want = math.cosh(beta * j) / (math.cosh(beta * b_m) + math.cosh(beta * j))
            assert abs(output_fidelity(p, 0.0) - want) < 1e-14

    def test_perfect_singlet_resource(self):
        p = ModelParams(j=1.0, b_m=0.0, t=0.01)
        for theta in np.linspace(0, np.pi, 7):
            assert abs(output_fidelity(p, theta) - 1.0) < 1e-12

    def test_scalar_oracle(self):
        p = ModelParams(j=1.0, b_m=0.5, t=1.0)
        got = output_fidelity(p, np.pi / 2)
        assert abs(got - closed_form_pointwise(1.0, 0.5, 1.0, np.pi / 2)) < 1e-14

    def test_phi_independence(self):
        rho = gibbs_state(ModelParams(j=1.3, b_m=0.6, t=0.9)).rho
        theta = 1.1
        fids = [channel_fidelity(rho, PureQubit(theta=theta, phi=phi))
                for phi in np.arange(0.0, 2 * np.pi + 1e-9, np.pi / 4)]
        assert max(fids) - min(fids) < 1e-12

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            output_fidelity(ModelParams(1.0, 0.0, 1.0), 3.5)

    def test_bool_theta_rejected(self):
        with pytest.raises(ValueError, match=r"^theta must be a number, not a bool$"):
            output_fidelity(ModelParams(1.0, 0.0, 1.0), True)


class TestAverageFidelity:
    def test_infinite_temperature(self):
        assert abs(average_fidelity(ModelParams(1.0, 0.0, 1e12)).average - 0.5) < 1e-9

    def test_scalar_oracle(self):
        rep = average_fidelity(ModelParams(j=1.0, b_m=0.5, t=1.0))
        assert abs(rep.average - closed_form_average(1.0, 0.5, 1.0)) < 1e-14
        assert abs(rep.average - 0.67261) < 1e-5
        assert rep.average > 2 / 3
        assert (rep.samples, rep.stderr) == (None, None)

    def test_equivalent_boltzmann_form(self):
        # second closed form: (2 e^{bJ}/Z + 1)/3
        rng = np.random.default_rng(27)
        for _ in range(100):
            j, b_m, t = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 5)
            beta = 1.0 / t
            z = 2 * math.cosh(beta * b_m) + 2 * math.cosh(beta * j)
            want = (2 * math.exp(beta * j) / z + 1) / 3
            assert abs(average_fidelity(ModelParams(j, b_m, t)).average - want) < 1e-12

    def test_strong_field_never_beats_classical(self):
        assert average_fidelity(ModelParams(j=1.0, b_m=1.0, t=0.5)).average <= 2 / 3

    def test_gauss_legendre_average_of_pointwise(self):
        # averaging the pointwise closed form over cos(theta) nodes recovers
        # the closed-form average (the integrand is quadratic in cos theta)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = ModelParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 5))
            avg = 0.5 * sum(w * output_fidelity(p, float(np.arccos(u)))
                            for u, w in zip(nodes, weights))
            assert abs(avg - average_fidelity(p).average) < 1e-12


class TestMonteCarlo:
    def test_singlet_exact(self):
        rep = mc_average_fidelity(SINGLET, 100, seed=0)
        assert rep.average == 1.0
        assert rep.stderr == 0.0
        assert rep.samples == 100

    def test_maximally_mixed(self):
        rep = mc_average_fidelity(np.eye(4) / 4, 10_000, seed=0)
        assert abs(rep.average - 0.5) < 1e-12

    def test_thermal_within_three_stderr(self):
        p = ModelParams(j=1.0, b_m=0.5, t=1.0)
        rep = mc_average_fidelity(gibbs_state(p).rho, 1_000_000, seed=42)
        assert rep.stderr > 0.0
        assert abs(rep.average - closed_form_average(1.0, 0.5, 1.0)) < 3 * rep.stderr

    def test_deterministic_for_fixed_seed(self):
        rho = gibbs_state(ModelParams(1.0, 0.3, 0.8)).rho
        a = mc_average_fidelity(rho, 5000, seed=7)
        b = mc_average_fidelity(rho, 5000, seed=7)
        assert a == b

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            mc_average_fidelity(SINGLET, 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
            mc_average_fidelity(SINGLET, 10, seed=-1)

    @pytest.mark.parametrize("n,seed,message", [
        (2.5, 0, "sample count must be an integer, got 2.5"),
        (10.0, 0, "sample count must be an integer, got 10.0"),
        (True, 0, "sample count must be an integer, got True"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (10, True, "seed must be an integer, got True"),
        (10, np.True_, "seed must be an integer, got "),  # repr differs across numpy
    ])
    def test_non_integer_arguments_rejected(self, n, seed, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            mc_average_fidelity(SINGLET, n, seed=seed)

    def test_numpy_integers_accepted(self):
        a = mc_average_fidelity(SINGLET, np.int64(10), seed=np.uint32(3))
        assert a == mc_average_fidelity(SINGLET, 10, seed=3)


class TestQuadrature:
    def test_matches_closed_form_on_grid(self):
        rng = np.random.default_rng(28)
        for _ in range(50):
            p = ModelParams(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.1, 5))
            got = quadrature_average(gibbs_state(p).rho)
            assert abs(got - average_fidelity(p).average) < 1e-10

    def test_maximally_mixed(self):
        assert abs(quadrature_average(np.eye(4) / 4) - 0.5) < 1e-12

    def test_single_pauli_channel(self):
        # resource |Phi+><Phi+| has weights (0,0,1,0); sphere-average of
        # |<psi|sy|psi>|^2 is 1/3
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        assert np.allclose(bell_weights(rho), (0, 0, 1, 0), atol=1e-12)
        assert abs(quadrature_average(rho) - 1 / 3) < 1e-12


class TestProtocolOracle:
    def test_singlet_calibration(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            psi = random_pure_qubit(rng)
            assert np.abs(protocol_oracle(SINGLET, psi) - density(psi)).max() < 1e-12

    def test_matches_channel_on_random_resources(self):
        rng = np.random.default_rng(30)
        for _ in range(150):
            rho = random_density(rng)
            psi = random_pure_qubit(rng)
            out = protocol_oracle(rho, psi)
            assert np.abs(out - apply_channel(rho, psi)).max() < 1e-10
            assert abs(np.trace(out).real - 1.0) < 1e-12

    def test_triple_agreement(self):
        p = ModelParams(j=1.0, b_m=0.0, t=0.5)
        psi = PureQubit(theta=np.pi / 3, phi=1.0)
        rho = gibbs_state(p).rho
        out = protocol_oracle(rho, psi)
        k = ket(psi)
        fid = float(np.real(k.conj() @ out @ k))
        assert abs(fid - output_fidelity(p, psi.theta)) < 1e-10
        assert abs(fid - channel_fidelity(rho, psi)) < 1e-10
