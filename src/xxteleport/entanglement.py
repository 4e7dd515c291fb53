"""Two-qubit entanglement measures for the XX thermal state.

Provides the general spin-flip concurrence for arbitrary two-qubit density
matrices, its closed form for the XX thermal state,

    C = max{ (|sinh beta*J| - 1) / (cosh beta*B_m + cosh beta*J), 0 },

and the field-independent temperature above which it vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA, hermitian_function, stack_of_one, validate_density
from .model import ModelParams, _reject_bool, hyperbolic_weights

# sigma_y (x) sigma_y, the spin-flip conjugation.
SPIN_FLIP = np.kron(SIGMA[2], SIGMA[2])
SPIN_FLIP.flags.writeable = False

# Spectrum values of the spin-flipped product above this (negative) threshold
# are roundoff and get clamped to zero; anything below is a logic error.
NEGATIVE_EIG_TOL = 1e-10


class AlwaysSeparableError(ValueError):
    """No coupling means no thermal entanglement at any temperature."""


@dataclass(frozen=True)
class ConcurrenceBreakdown:
    """Concurrence of a two-qubit density matrix."""

    value: float


def concurrence_stack(rhos) -> np.ndarray:
    """Spin-flip concurrence, shape (N,), of each two-qubit density matrix in a
    stack (N, 4, 4).

    The spin-flipped product rho (sy(x)sy) rho* (sy(x)sy) shares its spectrum
    with the Hermitian-symmetrized matrix W W^dagger, W = sqrt(rho) (sy(x)sy)
    sqrt(rho)^T, so its square-rooted eigenvalues are the singular values of
    W.  Computing them that way avoids taking sqrt of near-zero eigenvalues,
    which would cost half the working precision on almost-pure states.  The
    concurrence is max(l1 - l2 - l3 - l4, 0) over the decreasing l_k.
    """
    rhos = validate_density(rhos)
    sq = hermitian_function(rhos, lambda x: np.sqrt(np.maximum(x, 0.0)))
    w = np.linalg.svd(sq @ SPIN_FLIP @ sq.swapaxes(-1, -2), compute_uv=False)
    if not np.all(np.isfinite(w)) or w.min() < -NEGATIVE_EIG_TOL:
        raise FloatingPointError(
            f"spin-flip spectrum out of range: {w.min():.3e}")
    lam = np.sort(np.maximum(w, 0.0))[..., ::-1]
    return np.maximum(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0)


def concurrence(rho) -> ConcurrenceBreakdown:
    """Concurrence of an arbitrary two-qubit density matrix (see concurrence_stack)."""
    return ConcurrenceBreakdown(value=float(concurrence_stack(stack_of_one(rho))[0]))


def thermal_concurrence_array(j, b_m, t):
    """Closed-form concurrence of the XX thermal state over broadcastable
    (j, b_m, t) arrays of valid ModelParams fields (not checked here).

    Depends on |J| and |B_m| only, so it is exactly invariant under sign
    flips of either parameter.
    """
    ch_b, ch_j, sh_j, scale = hyperbolic_weights(j, b_m, t)
    return np.maximum((abs(sh_j) - scale) / (ch_b + ch_j), 0.0)


def thermal_concurrence(p: ModelParams) -> float:
    """Closed-form concurrence of the XX thermal state at one parameter point."""
    return float(thermal_concurrence_array(p.j, p.b_m, p.t))


def zero_entanglement_temperature(j: float) -> float:
    """Temperature above which the thermal concurrence vanishes, |J|/ln(1 + sqrt 2).

    Field independent: the concurrence is zero exactly when sinh(beta|J|) <= 1.
    """
    _reject_bool(j, "j")
    if not math.isfinite(j):
        raise ValueError(f"j must be finite, got {j}")
    if j == 0.0:
        raise AlwaysSeparableError("thermal state is separable at every temperature for j = 0")
    return abs(j) / float(np.arcsinh(1.0))
