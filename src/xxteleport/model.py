"""Two-qubit XX chain in a uniform z field: parameters and thermal state.

    H = (J/2)(sx (x) sx + sy (x) sy) + (B_m/2)(sz (x) 1 + 1 (x) sz)

in the computational basis |00>, |01>, |10>, |11> with the left tensor factor
qubit A.  The eigenbasis is |00>, |Psi+>, |Psi->, |11> where
|Psi+-> = (|01> +- |10>)/sqrt(2), with energies B_m, +J, -J, -B_m.  Units set
Boltzmann's constant to 1, so beta = 1/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import SIGMA, hermitian_function

# The two Pauli-product terms of H: sx(x)sx + sy(x)sy and sz(x)1 + 1(x)sz.
_COUPLING_TERM = np.kron(SIGMA[1], SIGMA[1]) + np.kron(SIGMA[2], SIGMA[2])
_FIELD_TERM = np.kron(SIGMA[3], SIGMA[0]) + np.kron(SIGMA[0], SIGMA[3])
for _m in (_COUPLING_TERM, _FIELD_TERM):
    _m.flags.writeable = False

_BOOLS = (bool, np.bool_)

# Largest |beta * energy| the matrix-exponential path accepts before exp overflows.
MAX_BETA_ENERGY = 700.0


def _reject_bool(value, name: str) -> None:
    """Reject a bool passed as a number: math and numpy would take True as 1."""
    if isinstance(value, _BOOLS):
        raise ValueError(f"{name} must be a number, not a bool")


@dataclass(frozen=True)
class ModelParams:
    """Coupling j, field b_m and temperature t (all in the same energy units)."""

    j: float
    b_m: float
    t: float

    def __post_init__(self):
        j, b_m, t = self.j, self.b_m, self.t
        if isinstance(j, _BOOLS) or isinstance(b_m, _BOOLS) or isinstance(t, _BOOLS):
            raise ValueError("model parameters must be numbers, not bools")
        if not (math.isfinite(j) and math.isfinite(b_m) and math.isfinite(t)):
            raise ValueError("model parameters must be finite")
        if t <= 0.0:
            raise ValueError(f"temperature must be positive, got {t}")
        # Beyond these, hyperbolic_weights overflows into NaN or warnings.  No
        # message names t: sweep checks each eta at the coldest t only.
        beta = 1.0 / t
        if not math.isfinite(beta):
            raise ValueError(f"temperature {t} is too small: beta = 1/t overflows")
        if not math.isfinite(2.0 * (beta * max(abs(j), abs(b_m)))):
            raise ValueError(f"beta*energy overflows for j = {j}, b_m = {b_m}")

    @property
    def beta(self) -> float:
        return 1.0 / self.t


@dataclass(frozen=True)
class ThermalState:
    """Equilibrium density matrix (4x4)."""

    rho: np.ndarray


def _hamiltonian(j, b_m) -> np.ndarray:
    """H for scalar (j, b_m), shape (4, 4), or for arrays of them, shape (N, 4, 4)."""
    return 0.5 * (np.multiply.outer(j, _COUPLING_TERM) + np.multiply.outer(b_m, _FIELD_TERM))


def hyperbolic_weights(j, b_m, t):
    """(cosh beta*B_m, cosh beta*J, sinh beta*J, 1), all scaled by a common factor.

    j, b_m and t are floats or broadcastable ndarrays of valid ModelParams
    fields (not checked here); each component has their broadcast shape.  The
    common factor is exp(-max(beta|J|, beta|B_m|)), so no component can
    overflow at any temperature.  Every closed form built from these is a
    ratio that is homogeneous of degree one, hence unaffected by the scale;
    the fourth component carries the scale for terms with a bare constant.
    """
    beta = 1.0 / t
    a = beta * j  # signed, so that sinh carries the sign of j
    b = beta * abs(b_m)
    m = np.maximum(abs(a), b)
    up, down = np.exp(a - m), np.exp(-a - m)
    ch_b = 0.5 * (np.exp(b - m) + np.exp(-b - m))
    return ch_b, 0.5 * (up + down), 0.5 * (up - down), np.exp(-m)


def gibbs_state_array(j, b_m, t) -> np.ndarray:
    """Thermal states (..., 4, 4) of floats or same-shape arrays of valid ModelParams
    fields (not checked here), from max-shifted closed-form populations."""
    x = -(1.0 / t) * np.array([b_m, j, -j, -b_m])  # levels |00>, |Psi+>, |Psi->, |11> first
    w = np.exp(x - x.max(axis=0))
    w /= ((w[0] + w[1]) + w[2]) + w[3]
    rho = np.zeros(w.shape[1:] + (4, 4), dtype=complex)
    rho[..., 0, 0], rho[..., 3, 3] = w[0], w[3]
    rho[..., 1, 1] = rho[..., 2, 2] = 0.5 * (w[1] + w[2])
    rho[..., 1, 2] = rho[..., 2, 1] = 0.5 * (w[1] - w[2])
    rho.flags.writeable = False
    return rho


def gibbs_state(p: ModelParams) -> ThermalState:
    """Thermal state of one parameter point (see gibbs_state_array)."""
    return ThermalState(rho=gibbs_state_array(p.j, p.b_m, p.t))


def gibbs_state_oracle_array(j, b_m, t) -> np.ndarray:
    """Thermal states (N, 4, 4) of arrays (N,) of ModelParams fields by exponentiating H."""
    beta = 1.0 / t
    if np.any(np.abs(beta * j) > MAX_BETA_ENERGY) or np.any(np.abs(beta * b_m) > MAX_BETA_ENERGY):
        raise ValueError("beta*energy too large for the matrix-exponential path")
    em = hermitian_function(_hamiltonian(j, b_m), lambda x: np.exp(-beta[:, None] * x))
    rho = em / np.trace(em, axis1=1, axis2=2).real[:, None, None]
    rho.flags.writeable = False
    return rho


def gibbs_state_oracle_stack(params: Sequence[ModelParams]) -> np.ndarray:
    """gibbs_state_oracle_array of N parameter points."""
    points = np.array([(p.j, p.b_m, p.t) for p in params], dtype=float).reshape(-1, 3)
    return gibbs_state_oracle_array(*points.T)
