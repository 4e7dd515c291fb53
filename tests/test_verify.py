"""The array-form verify suite and the stacked oracles it runs on."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xxteleport.entanglement as entanglement
import xxteleport.model as model
import xxteleport.phase as phase
import xxteleport.teleport as teleport
import xxteleport.verify as verify
from xxteleport import cli
from xxteleport.entanglement import concurrence, concurrence_stack
from xxteleport.linalg import hermitian_function, validate_density
from xxteleport.model import (ModelParams, gibbs_state, gibbs_state_array,
                              gibbs_state_oracle_stack)
from xxteleport.teleport import (FidelityReport, PureQubit, apply_channel, apply_channel_stack,
                                 bell_weights, bell_weights_stack, channel_fidelity_stack,
                                 fidelity_from_weights, mc_average_fidelity, protocol_oracle,
                                 protocol_oracle_stack, quadrature_average_fidelity_stack)
from xxteleport.verify import (DEFAULT_TOLERANCES, random_density, random_params,
                               random_pure_qubit, run_verification)

SHIFT = 1e-8
SINGLET = teleport.BELL_PROJECTORS[0]


def _shift_gibbs(original):
    def shifted(j, b_m, t):
        # An imaginary, antisymmetric coherence keeps rho Hermitian with the
        # same trace and Bell weights, so only the Gibbs check can see it.
        rho = original(j, b_m, t).copy()
        rho[..., 1, 2] += 1j * SHIFT
        rho[..., 2, 1] -= 1j * SHIFT
        return rho
    return shifted


# check, closed form it compares against, modules whose binding is shifted, shift.
# The channel stays unshifted inside teleport: the pointwise check reads the
# channel as its oracle, by design.  The average is shifted downwards, so it
# stays inside [0, 1].
MUTATIONS = [
    ("gibbs-analytic-vs-matrix-exponential", "gibbs_state_array", (model, verify), _shift_gibbs),
    ("concurrence-closed-form-vs-spin-flip", "thermal_concurrence_array",
     (entanglement, verify), lambda f: lambda j, b_m, t: f(j, b_m, t) + SHIFT),
    ("channel-vs-protocol-oracle", "apply_channel_stack", (verify,),
     lambda f: lambda rhos, psis: f(rhos, psis) + SHIFT),
    ("pointwise-fidelity-vs-channel", "output_fidelity_array", (teleport, verify),
     lambda f: lambda j, b_m, t, theta: f(j, b_m, t, theta) + SHIFT),
    ("average-fidelity-vs-quadrature", "average_fidelity_array", (teleport, verify),
     lambda f: lambda j, b_m, t: f(j, b_m, t) - SHIFT),
]


@pytest.mark.parametrize("check,attr,modules,shift", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_oracle_independent_of_closed_form(monkeypatch, check, attr, modules, shift):
    original = getattr(verify, attr)
    for mod in modules:
        monkeypatch.setattr(mod, attr, shift(original))
    results = {r.name: r for r in run_verification(seed=0, grid_size=40)}
    assert list(results) == list(DEFAULT_TOLERANCES)
    assert [name for name, r in results.items() if not r.passed] == [check]
    assert results[check].max_deviation == pytest.approx(SHIFT, rel=1e-6)


# The one-point helpers and run_verification's per-point draw loop as they
# were before the draws were batched: the references for the stream order.
def reference_params(rng):
    return rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)


def reference_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real


def reference_pure_qubit(rng):
    return PureQubit(theta=float(np.arccos(rng.uniform(-1.0, 1.0))),
                     phi=float(rng.uniform(0.0, 2.0 * np.pi)))


def reference_draws(rng, grid_size):
    params = [reference_params(rng) for _ in range(grid_size)]
    pairs = [(reference_density(rng), reference_pure_qubit(rng)) for _ in range(grid_size)]
    inputs = [reference_pure_qubit(rng) for _ in params]
    mc_seeds = [int(rng.integers(2**31)) for _ in params[:verify._MC_POINTS]]
    return (np.array(params), np.stack([rho for rho, _ in pairs]), [psi for _, psi in pairs],
            inputs, mc_seeds)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def _qubit_bits(psis):
    return [(psi.theta.hex(), psi.phi.hex()) for psi in psis]


@pytest.mark.parametrize("grid_size,seeds", [(1, range(10)), (2, range(10)), (10, range(10)),
                                             (80, range(10)), (150, range(10)), (50, [122])])
def test_batched_draws_match_point_by_point(grid_size, seeds):
    """The array draws take the stream exactly as the per-point loop did."""
    for seed in seeds:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        grid, mixed, mixed_inputs, inputs, mc_seeds = verify._draw(rng, grid_size)
        want = reference_draws(ref_rng, grid_size)
        assert _bits(grid) == _bits(want[0])
        assert _bits(mixed) == _bits(want[1])
        assert _qubit_bits(mixed_inputs) == _qubit_bits(want[2])
        assert _qubit_bits(inputs) == _qubit_bits(want[3])
        assert mc_seeds == want[4]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(10))
def test_one_point_helpers_match_point_by_point(seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        p = random_params(rng)
        assert [x.hex() for x in (p.j, p.b_m, p.t)] == \
            [x.hex() for x in reference_params(ref_rng)]
        assert _bits(random_density(rng)) == _bits(reference_density(ref_rng))
        assert _qubit_bits([random_pure_qubit(rng)]) == \
            _qubit_bits([reference_pure_qubit(ref_rng)])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3, 80])
def test_protocol_matches_outcome_loop(n):
    """The batched measurement gives, bit for bit, sum_k C_k tr_12(M_k T M_k) C_k^dagger
    computed outcome by outcome for each T = |psi><psi| (x) rho."""
    rng = np.random.default_rng(n)
    rhos = np.stack([random_density(rng) for _ in range(n)])
    psis = [random_pure_qubit(rng) for _ in range(n)]
    m, c = teleport._MEASUREMENT, teleport._CORRECTIONS
    for rho, psi, out in zip(rhos, psis, protocol_oracle_stack(rhos, psis)):
        half = 0.5 * psi.theta
        ket = np.array([np.cos(half), np.exp(1j * psi.phi) * np.sin(half)])
        # einsum, as in the oracle: np.kron multiplies complex numbers with a
        # different kernel, which rounds differently.
        t = np.einsum("ab,cd->acbd", np.outer(ket, ket.conj()), rho).reshape(8, 8)
        terms = [c[k] @ (m[k] @ t @ m[k]).reshape(4, 2, 4, 2).trace(axis1=0, axis2=2)
                 @ c[k].conj().T for k in range(4)]
        assert _bits(out) == _bits(((terms[0] + terms[1]) + terms[2]) + terms[3])


def test_same_points_per_seed():
    results = {r.name: r.max_deviation for r in run_verification(seed=122, grid_size=50)}
    assert results["average-fidelity-vs-monte-carlo"] == pytest.approx(4.040656877539775,
                                                                       abs=1e-9)
    assert results["table1-reproduction"] == 4.4897548790716625e-06


def test_rejects_empty_grid():
    with pytest.raises(ValueError, match="grid size"):
        run_verification(grid_size=0)


def test_rejects_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be a non-negative integer, got -1$"):
        run_verification(seed=-1, grid_size=1)


@pytest.mark.parametrize("kwargs,message", [
    ({"grid_size": 2.5}, r"^grid size must be an integer, got 2\.5$"),
    ({"grid_size": True}, r"^grid size must be an integer, got True$"),
    ({"grid_size": 1, "seed": 0.5}, r"^seed must be an integer, got 0\.5$"),
    ({"grid_size": 1, "seed": True}, r"^seed must be an integer, got True$"),
])
def test_rejects_non_integer_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_verification(**kwargs)


def test_table1_tolerance_is_phase_constant():
    assert DEFAULT_TOLERANCES["table1-reproduction"] is phase.TABLE1_TOLERANCE


def reference_mc(rho, n, seed):
    """The Monte Carlo estimate with a phi drawn for every sample: the
    reference that the kernel and the verify run must equal bit for bit."""
    w = np.asarray(bell_weights(rho))
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    f = fidelity_from_weights(w, u, phi)
    err = float(f.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return FidelityReport(average=float(f.mean()), samples=n, stderr=err)


class TestMonteCarloMatchesReference:
    """Skipping the phi draw for equal |Phi> weights never changes a sample."""

    # The block edges follow _MC_BLOCK; dict.fromkeys drops those already listed.
    @pytest.mark.parametrize("n", list(dict.fromkeys(
        [1, 2, 100, 4000, 8191, 8192, 8193, 200_000, 1_000_003, teleport._MC_BLOCK - 1,
         teleport._MC_BLOCK + 1, 2 * teleport._MC_BLOCK, 2 * teleport._MC_BLOCK + 1])))
    def test_kernel_bitwise(self, n):
        rng = np.random.default_rng(n)
        rhos = [gibbs_state(random_params(rng)).rho, random_density(rng), SINGLET, np.eye(4) / 4]
        for rho in rhos:
            for seed in (0, 7, 2**31 - 1):
                got = mc_average_fidelity(rho, n, seed=seed)
                want = reference_mc(rho, n, seed)
                assert (got.average.hex(), got.stderr.hex()) == \
                    (want.average.hex(), want.stderr.hex())

    def test_fidelity_command_bitwise(self, capsys):
        point = ["--j", "1", "--bm", "0.5", "--t", "1"]
        for n, seed in ((200_000, 3), (9000, 11), (1, 0)):
            argv = ["fidelity", *point, "--mc-samples", str(n), "--seed", str(seed)]
            assert cli.main(argv + ["--format", "json"]) == 0
            result = json.loads(capsys.readouterr().out)["result"]
            want = reference_mc(gibbs_state(ModelParams(1.0, 0.5, 1.0)).rho, n, seed)
            assert (result["mc_estimate"], result["mc_stderr"]) == (want.average, want.stderr)

    @pytest.mark.parametrize("grid_size,seeds", [(10, range(10)), (80, range(10)),
                                                 (150, range(10)), (50, [122])])
    def test_verification_bitwise(self, monkeypatch, grid_size, seeds):
        def deviations(seed):
            return [r.max_deviation for r in run_verification(seed=seed, grid_size=grid_size)]

        got = {seed: deviations(seed) for seed in seeds}
        monkeypatch.setattr(verify, "mc_average_fidelity",
                            lambda rho, n, seed: reference_mc(rho, n, seed))
        assert got == {seed: deviations(seed) for seed in seeds}

    def test_phi_drawn_only_for_unequal_phi_weights(self, monkeypatch):
        phis = []

        def recording(weights, cos_theta, phi):
            phis.append(phi)
            return fidelity_from_weights(weights, cos_theta, phi)

        monkeypatch.setattr(teleport, "fidelity_from_weights", recording)
        mc_average_fidelity(gibbs_state(ModelParams(1.0, 0.5, 1.0)).rho, 1000, seed=0)
        run_verification(seed=0, grid_size=10)
        calls = 1 + verify._MC_POINTS * -(-verify._MC_SAMPLES // teleport._MC_BLOCK)
        assert [type(phi) for phi in phis] == [float] * calls
        assert phis == [0.0] * calls
        phis.clear()
        mc_average_fidelity(random_density(np.random.default_rng(1)), 1000, seed=0)
        assert [type(phi) for phi in phis] == [np.ndarray]

    @pytest.mark.parametrize("resource,bound", [
        (lambda: gibbs_state(ModelParams(1.0, 0.5, 1.0)).rho, 1.25),
        (lambda: random_density(np.random.default_rng(1)), 1.25),
    ], ids=["thermal", "random"])
    def test_one_full_size_buffer(self, resource, bound):
        """A call holds the drawn samples, plus block-sized temporaries (and
        phi, drawn block by block where it is drawn at all)."""
        n = 200_000
        rho = resource()
        tracemalloc.start()
        try:
            mc_average_fidelity(rho, n, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * n


@st.composite
def thermal_points(draw):
    """Couplings that are zero, negative or huge, and a temperature from just
    above the smallest one ModelParams accepts for them up to 1e9."""
    energy = st.one_of(st.just(0.0), st.floats(-1e300, 1e300))
    j, b_m = draw(energy), draw(energy)
    t_min = max(1.0, 2.0 * max(abs(j), abs(b_m))) / np.finfo(float).max
    return ModelParams(j, b_m, draw(st.floats(t_min * (1.0 + 1e-9), 1e9)))


@settings(max_examples=300, deadline=None)
@given(p=thermal_points())
def test_thermal_phi_weights_equal(p):
    """The shortcut in mc_average_fidelity rests on this equality."""
    w = bell_weights(gibbs_state(p).rho)
    assert w[1].hex() == w[2].hex()


@settings(max_examples=200, deadline=None)
@given(points=st.lists(thermal_points(), min_size=1, max_size=5))
def test_gibbs_builder_rows_match_one_point(points):
    """A stack from the broadcast builder holds the bits of each one-point call,
    and those of the one-point closed form it replaced."""
    def reference(p):
        energies = np.array([p.b_m, p.j, -p.j, -p.b_m])
        x = -p.beta * energies
        w = np.exp(x - x.max())
        pop = w / w.sum()
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = pop[0]
        rho[3, 3] = pop[3]
        rho[1, 1] = rho[2, 2] = 0.5 * (pop[1] + pop[2])
        rho[1, 2] = rho[2, 1] = 0.5 * (pop[1] - pop[2])
        return rho

    j, b_m, t = np.array([(p.j, p.b_m, p.t) for p in points]).T
    rows = [_bits(rho) for rho in gibbs_state_array(j, b_m, t)]
    assert rows == [_bits(gibbs_state(p).rho) for p in points]
    assert rows == [_bits(reference(p)) for p in points]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3 * teleport._MC_BLOCK), seed=st.integers(0, 2**32 - 1),
       rho=st.one_of(thermal_points().map(lambda p: gibbs_state(p).rho),
                     st.integers(0, 2**32 - 1).map(
                         lambda s: random_density(np.random.default_rng(s)))))
def test_mc_blocks_match_reference(n, seed, rho):
    """Any sample count, full and partial blocks alike, gives the reference's bits."""
    got = mc_average_fidelity(rho, n, seed=seed)
    want = reference_mc(rho, n, seed)
    assert (got.average.hex(), got.stderr.hex()) == (want.average.hex(), want.stderr.hex())


@pytest.fixture
def stack():
    """Thermal and random resources, with one random input per resource."""
    rng = np.random.default_rng(50)
    params = [random_params(rng) for _ in range(6)]
    rhos = np.stack([gibbs_state(p).rho for p in params]
                    + [random_density(rng) for _ in range(6)])
    psis = [random_pure_qubit(rng) for _ in range(len(rhos))]
    return params, rhos, psis


class TestStackedMatchesScalar:
    """Each stacked row equals the same call on a stack of one (or the scalar
    entry point where one exists)."""

    TOL = 1e-15

    def test_gibbs_oracle(self, stack):
        params, _, _ = stack
        for p, rho in zip(params, gibbs_state_oracle_stack(params)):
            assert np.abs(rho - gibbs_state_oracle_stack([p])[0]).max() <= self.TOL

    def test_concurrence(self, stack):
        _, rhos, _ = stack
        for rho, value in zip(rhos, concurrence_stack(rhos)):
            assert abs(value - concurrence(rho).value) <= self.TOL

    def test_bell_weights(self, stack):
        _, rhos, _ = stack
        for rho, row in zip(rhos, bell_weights_stack(rhos)):
            assert np.abs(row - bell_weights(rho)).max() <= self.TOL

    def test_channel(self, stack):
        _, rhos, psis = stack
        outs = apply_channel_stack(rhos, psis)
        fids = channel_fidelity_stack(rhos, psis)
        for rho, psi, out, fid in zip(rhos, psis, outs, fids):
            assert np.abs(out - apply_channel(rho, psi)).max() <= self.TOL
            assert abs(fid - channel_fidelity_stack(rho[None], [psi])[0]) <= self.TOL

    def test_protocol(self, stack):
        _, rhos, psis = stack
        for rho, psi, out in zip(rhos, psis, protocol_oracle_stack(rhos, psis)):
            assert np.abs(out - protocol_oracle(rho, psi)).max() <= self.TOL

    def test_quadrature(self, stack):
        _, rhos, _ = stack
        for rho, avg in zip(rhos, quadrature_average_fidelity_stack(rhos)):
            assert abs(avg - quadrature_average_fidelity_stack(rho[None])[0]) <= self.TOL

    def test_linalg(self, stack):
        _, rhos, _ = stack
        assert np.array_equal(validate_density(rhos), rhos)
        roots = hermitian_function(rhos, lambda x: np.sqrt(np.maximum(x, 0.0)))
        for rho, root in zip(rhos, roots):
            one_root = hermitian_function(rho, lambda x: np.sqrt(np.maximum(x, 0.0)))
            assert np.abs(root - one_root).max() <= self.TOL


def _non_hermitian(rho):
    rho = rho.copy()
    rho[0, 1] += 0.1
    return rho


def _bad_trace(rho):
    return 1.5 * rho


def _negative_eigenvalue(rho):
    return np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)


STACK_ORACLES = {
    "validate_density": (lambda rhos, psis: validate_density(rhos),
                         lambda rho, psi: validate_density(rho)),
    "concurrence": (lambda rhos, psis: concurrence_stack(rhos),
                    lambda rho, psi: concurrence(rho)),
    "bell_weights": (lambda rhos, psis: bell_weights_stack(rhos),
                     lambda rho, psi: bell_weights(rho)),
    "apply_channel": (apply_channel_stack, apply_channel),
    "protocol_oracle": (protocol_oracle_stack, protocol_oracle),
    "quadrature": (lambda rhos, psis: quadrature_average_fidelity_stack(rhos),
                   lambda rho, psi: quadrature_average_fidelity_stack(rho[None])),
}


@pytest.mark.parametrize("spoil", [_non_hermitian, _bad_trace, _negative_eigenvalue])
@pytest.mark.parametrize("oracle", list(STACK_ORACLES))
def test_bad_member_fails_like_scalar(stack, oracle, spoil):
    _, rhos, psis = stack
    stacked, scalar = STACK_ORACLES[oracle]
    bad = spoil(rhos[3])
    with pytest.raises(ValueError) as one:
        scalar(bad, psis[3])
    rhos = rhos.copy()
    rhos[3] = bad
    with pytest.raises(ValueError) as many:
        stacked(rhos, psis)
    assert str(many.value) == str(one.value)


def test_gibbs_oracle_bad_member_fails_like_scalar(stack):
    params, _, _ = stack
    cold = ModelParams(j=1.0, b_m=0.0, t=1e-4)
    assert abs(cold.beta * cold.j) > model.MAX_BETA_ENERGY
    with pytest.raises(ValueError) as one:
        gibbs_state_oracle_stack([cold])
    with pytest.raises(ValueError) as many:
        gibbs_state_oracle_stack(params[:2] + [cold] + params[2:])
    assert str(many.value) == str(one.value)
