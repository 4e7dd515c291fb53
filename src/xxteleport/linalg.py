"""Dense complex linear algebra for 2- and 4-dimensional Hermitian problems.

All matrices are plain complex ndarrays.  Sizes are tiny, so the emphasis is
on strict validation: bad inputs fail loudly instead of propagating NaNs or
silently non-Hermitian results downstream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Structural checks (hermiticity, trace, positivity) share this tolerance.
HERMITIAN_ATOL = 1e-12
DENSITY_ATOL = 1e-12

ALLOWED_DIMS = (2, 4)

# Pauli matrices sigma_0..sigma_3 (identity, x, y, z).
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _s in SIGMA:
    _s.flags.writeable = False


def _square_stack(a: np.ndarray, name: str) -> np.ndarray:
    """Check a complex (d, d) or (N, d, d) array: square, d in ALLOWED_DIMS, all finite."""
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[-1] not in ALLOWED_DIMS:
        raise ValueError(f"{name} dimension must be one of {ALLOWED_DIMS}, got {a.shape[-1]}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def stack_of_one(m, name: str = "matrix") -> np.ndarray:
    """A single complex matrix (d, d) as a stack (1, d, d); other shapes are rejected."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a[None]


def validate_hermitian(m, name: str = "matrix", atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """A Hermitian matrix (d, d) or stack of them (N, d, d); one bad member fails all."""
    a = _square_stack(np.asarray(m, dtype=complex), name)
    if np.abs(a - a.conj().swapaxes(-1, -2)).max() > atol:
        raise ValueError(f"{name} is not Hermitian within {atol:g}")
    return a


def validate_density(rho, name: str = "rho", atol: float = DENSITY_ATOL) -> np.ndarray:
    """Validate a two-qubit density matrix (4, 4), or each member of a stack
    (N, 4, 4): Hermitian, unit trace, spectrum >= -atol.  A stack fails with
    the message its first bad member would give on its own.
    """
    a = validate_hermitian(rho, name, atol)
    d = a.shape[-1]
    if d != 4:
        raise ValueError(f"{name} must be 4x4, got {d}x{d}")
    tr = a.diagonal(0, -2, -1).sum(-1)
    bad = np.abs(tr - 1.0) > atol
    if bad.any():
        raise ValueError(f"{name} trace must be 1, got {tr[bad][0]:.15g}")
    w_min = np.linalg.eigvalsh(a)[..., 0]
    bad = w_min < -atol
    if bad.any():
        raise ValueError(f"{name} has negative eigenvalue {w_min[bad][0]:.3e}")
    return a


def hermitian_function(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Spectral function V diag(f(lambda)) V^dagger of a Hermitian matrix or stack.

    f is applied once to the whole real eigenvalue array, shape (d,) or
    (N, d), ascending along the last axis, and must return real values of
    the same shape.
    """
    a = validate_hermitian(m, "m")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    fw = np.asarray(f(w), dtype=float)
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)
