"""Dense complex linear algebra for two-qubit (4x4) Hermitian problems.

All matrices are plain complex ndarrays.  Sizes are tiny, so the emphasis is
on strict validation: bad inputs fail loudly instead of propagating NaNs or
silently non-Hermitian results downstream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Structural checks (hermiticity, trace, positivity) share this tolerance.
ATOL = 1e-12

# Pauli matrices sigma_0..sigma_3 (identity, x, y, z).
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _s in SIGMA:
    _s.flags.writeable = False


def _hermitian_4x4(m, name: str) -> np.ndarray:
    """m as a complex array, checked to be a finite Hermitian (4, 4) matrix or
    (N, 4, 4) stack of them; one bad member fails the stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3):
        raise ValueError(f"{name} must be a matrix or a stack of them, got shape {a.shape}")
    if a.shape[-2:] != (4, 4):
        raise ValueError(f"{name} must be 4x4, got {a.shape[-2]}x{a.shape[-1]}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    if np.abs(a - a.conj().swapaxes(-1, -2)).max() > ATOL:
        raise ValueError(f"{name} is not Hermitian within {ATOL:g}")
    return a


def stack_of_one(rho) -> np.ndarray:
    """A single matrix rho as a stack (1, d, d); a stack of them is rejected."""
    a = np.asarray(rho, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"rho must be a single matrix, got shape {a.shape}")
    return a[None]


def validate_density(rho) -> np.ndarray:
    """Validate a two-qubit density matrix (4, 4), or each member of a stack
    (N, 4, 4): Hermitian, unit trace, spectrum >= -ATOL.  A stack fails with
    the message its first bad member would give on its own.
    """
    a = _hermitian_4x4(rho, "rho")
    tr = a.diagonal(0, -2, -1).sum(-1)
    bad = np.abs(tr - 1.0) > ATOL
    if bad.any():
        raise ValueError(f"rho trace must be 1, got {tr[bad][0]:.15g}")
    w_min = np.linalg.eigvalsh(a)[..., 0]
    bad = w_min < -ATOL
    if bad.any():
        raise ValueError(f"rho has negative eigenvalue {w_min[bad][0]:.3e}")
    return a


def hermitian_function(m, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Spectral function V diag(f(lambda)) V^dagger of a Hermitian 4x4 matrix or stack.

    f is applied once to the whole real eigenvalue array, shape (4,) or
    (N, 4), ascending along the last axis, and must return real values of
    the same shape.
    """
    a = _hermitian_4x4(m, "m")
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Hermitian eigensolver failed to converge: {exc}") from exc
    fw = np.asarray(f(w), dtype=float)
    return (v * fw[..., None, :]) @ v.conj().swapaxes(-1, -2)
