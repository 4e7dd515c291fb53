import numpy as np
import pytest

from xxteleport.linalg import SIGMA, hermitian_function, stack_of_one, validate_density
from xxteleport.model import _hamiltonian

PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
# sz and sx on qubit A: spectra {-1, -1, 1, 1}.
SZ_A = np.kron(SIGMA[3], SIGMA[0])
SX_A = np.kron(SIGMA[1], SIGMA[0])


def random_hermitian(rng, dim=4, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2


class TestKron:
    """The np.kron convention the package's operators are built on: the left
    factor is qubit A, the most significant index of the computational basis."""

    def test_identity_case(self):
        assert np.array_equal(np.kron(SIGMA[0], SIGMA[0]), np.eye(4))

    def test_sz_identity(self):
        assert np.allclose(np.kron(SIGMA[3], SIGMA[0]), np.diag([1, 1, -1, -1]), atol=1e-15)

    def test_sx_sx_antidiagonal(self):
        assert np.allclose(np.kron(SIGMA[1], SIGMA[1]), np.fliplr(np.eye(4)), atol=1e-15)

    def test_product_dimension_multiplies(self):
        assert np.kron(SIGMA[0], np.eye(4)).shape == (8, 8)
        assert np.kron(np.eye(4), SIGMA[0]).shape == (8, 8)

    def test_associative(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_hermitian(rng, 2) for _ in range(3))
        assert np.allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-12)

    def test_trace_multiplicative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 4)
            assert abs(np.trace(np.kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def spectrum(m) -> np.ndarray:
    """The eigenvalues hermitian_function hands to f."""
    seen = []

    def record(w):
        seen.append(w)
        return w

    hermitian_function(m, record)
    return seen[0]


def ones(w):
    return np.ones_like(w)


class TestEigh:
    """The eigensolver inside hermitian_function: ascending real eigenvalues,
    orthonormal eigenvectors, strict input checks."""

    def test_sz(self):
        assert np.array_equal(spectrum(SZ_A), [-1.0, -1.0, 1.0, 1.0])
        assert np.allclose(hermitian_function(SZ_A, lambda w: w), SZ_A, atol=1e-15)

    def test_sx(self):
        assert np.allclose(spectrum(SX_A), [-1, -1, 1, 1], atol=1e-15)
        # the +1 eigenvector of sx is (1, 1)/sqrt2 up to phase: its projector is all 1/2
        plus = hermitian_function(SX_A, lambda w: (w > 0).astype(float))
        assert np.allclose(plus, np.kron(np.full((2, 2), 0.5), SIGMA[0]), atol=1e-12)

    def test_xx_hamiltonian_spectrum(self):
        h = _hamiltonian(1.0, 0.5)
        assert np.allclose(spectrum(h), [-1.0, -0.5, 0.5, 1.0], atol=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match=r"^m is not Hermitian within 1e-12$"):
            hermitian_function(m, ones)

    def test_rejects_non_finite(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^m contains non-finite entries$"):
            hermitian_function(m, ones)

    def test_rejects_unsupported_dimension(self):
        for rows, cols in [(2, 2), (8, 8), (4, 3)]:
            m = np.eye(rows, cols, dtype=complex)
            for check, name in [(lambda a: hermitian_function(a, ones), "m"),
                                (validate_density, "rho")]:
                for a in (m, np.stack([m] * 3)):
                    with pytest.raises(ValueError, match=rf"^{name} must be 4x4, got {rows}x{cols}$"):
                        check(a)

    def test_rejects_other_ranks(self):
        for shape in [(), (4,), (2, 3, 4, 4)]:
            with pytest.raises(ValueError, match=r"must be a matrix or a stack of them"):
                hermitian_function(np.zeros(shape), ones)

    def test_non_convergence_raises_runtime_error(self, monkeypatch):
        def failing(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(RuntimeError, match="failed to converge"):
            hermitian_function(SZ_A, ones)

    def test_random_hermitian_properties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            m = random_hermitian(rng, 4)
            assert np.all(np.diff(spectrum(m)) >= 0)
            # V V^dagger = 1 (orthonormal columns) and V diag(w) V^dagger = m
            assert np.abs(hermitian_function(m, ones) - np.eye(4)).max() < 1e-12
            assert np.abs(hermitian_function(m, lambda w: w) - m).max() < 1e-12


class TestHermitianFunction:
    def test_identity_function(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 4)
        assert np.abs(hermitian_function(m, lambda x: x) - m).max() < 1e-12

    def test_exp_of_zero(self):
        assert np.allclose(hermitian_function(np.zeros((4, 4)), np.exp), np.eye(4), atol=1e-15)

    def test_exp_negative_diag(self):
        out = hermitian_function(SZ_A, lambda x: np.exp(-x))
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-1.0), np.e, np.e]), atol=1e-14)

    def test_exp_inverse_pair(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = random_hermitian(rng, 4)
            prod = hermitian_function(m, np.exp) @ hermitian_function(m, lambda x: np.exp(-x))
            assert np.abs(prod - np.eye(4)).max() < 1e-10


class TestBasicOps:
    def test_projector_idempotent_trace(self):
        proj = np.outer(PSI_MINUS, PSI_MINUS.conj())
        assert abs(np.trace(proj @ proj) - 1) < 1e-12


class TestDensityValidation:
    def test_trace_of_density_is_one(self):
        rho = validate_density(np.eye(4) / 4)
        assert abs(np.trace(rho) - 1) < 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(4))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(ValueError):
            validate_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))

    def test_rejects_one_qubit_state(self):
        with pytest.raises(ValueError, match=r"^rho must be 4x4, got 2x2$"):
            validate_density(np.eye(2) / 2)


def test_stack_of_one_rejects_a_stack():
    # a scalar entry point given a stack would otherwise answer for its first member
    with pytest.raises(ValueError, match=r"^rho must be a single matrix, got shape \(2, 4, 4\)$"):
        stack_of_one(np.stack([np.eye(4) / 4] * 2))
