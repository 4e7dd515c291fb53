"""Standard teleportation with a two-qubit resource state.

A Bell measurement on (input, A) followed by the outcome-conditioned Pauli
correction on B acts on the input as the Pauli-diagonal channel

    rho_in  ->  sum_j p_j s_j rho_in s_j,     p_j = tr(E_j rho_AB),

where E_0..E_3 project onto |Psi->, |Phi->, |Phi+>, |Psi+> and s_j is the
matching Pauli.  This module implements that channel, the fidelity closed
forms for the XX thermal resource, deterministic and Monte Carlo averages
over the Bloch sphere, and a literal three-qubit simulation of the protocol
used as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import SIGMA, stack_of_one, validate_density
from .model import ModelParams, _reject_bool, hyperbolic_weights

_GL_NODES = 16
# Uniform phi angles whose discrete mean equals the continuous phi average for
# trigonometric polynomials of degree <= 3 (the pointwise fidelity has degree 2).
_PHI_MEAN_ANGLES = (0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi)


@dataclass(frozen=True)
class PureQubit:
    """Input qubit cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.

    theta must lie in [0, pi]; phi is reduced mod 2*pi to [0, 2*pi).
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        _reject_bool(self.theta, "theta")
        _reject_bool(self.phi, "phi")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("Bloch angles must be finite")
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        phi = self.phi % (2.0 * np.pi)
        # A tiny negative phi rounds up to 2*pi itself, the one excluded value.
        object.__setattr__(self, "phi", 0.0 if phi == 2.0 * np.pi else phi)


def _kets(theta, phi) -> np.ndarray:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, broadcast: shape (..., 2)."""
    half = 0.5 * np.asarray(theta, dtype=float)
    k = np.empty(np.broadcast_shapes(half.shape, np.shape(phi)) + (2,), dtype=complex)
    k[..., 0] = np.cos(half)
    k[..., 1] = np.exp(1j * np.asarray(phi, dtype=float)) * np.sin(half)
    return k


def _densities(kets: np.ndarray) -> np.ndarray:
    """|k><k| for kets (..., 2): shape (..., 2, 2)."""
    return kets[..., :, None] * kets[..., None, :].conj()


def _input_kets(psis: Sequence[PureQubit]) -> np.ndarray:
    """Kets (N, 2) of validated input qubits."""
    angles = np.array([(q.theta, q.phi) for q in psis], dtype=float).reshape(-1, 2)
    return _kets(angles[:, 0], angles[:, 1])


def _overlaps(kets: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Re <k|op|k>, broadcast over the leading axes of kets (..., 2) and ops (..., 2, 2)."""
    return np.einsum("...a,...ab,...b->...", kets.conj(), ops, kets).real


@dataclass(frozen=True)
class FidelityReport:
    """Average teleportation fidelity, with the sample count and standard
    error of a Monte Carlo estimate."""

    average: float
    samples: int | None = None
    stderr: float | None = None

    def __post_init__(self):
        if not -1e-12 <= self.average <= 1.0 + 1e-12:
            raise ValueError(f"average fidelity out of [0, 1]: {self.average}")
        object.__setattr__(self, "average", min(max(self.average, 0.0), 1.0))
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.stderr is not None and self.stderr < 0.0:
            raise ValueError("stderr must be >= 0")


# Rank-1 projectors onto |Psi->, |Phi->, |Phi+>, |Psi+>, in channel index order:
# |v><v|/2 for the unnormalised integer kets v, so every entry is exactly 0 or +-0.5.
_BELL_KETS = np.array([[0, 1, -1, 0], [1, 0, 0, -1], [1, 0, 0, 1], [0, 1, 1, 0]])
BELL_PROJECTORS = (0.5 * (_BELL_KETS[:, :, None] * _BELL_KETS[:, None, :])).astype(complex)
# Row-major vec(s rho s) = (s (x) s^T) vec(rho).  Row j holds that 4x4 map for
# s_j, transposed so that it acts on row vectors, and flattened.
_PAULI_CONJUGATIONS = np.stack([np.kron(s, s.T).T for s in SIGMA]).reshape(4, 16)
for _m in (BELL_PROJECTORS, _PAULI_CONJUGATIONS):
    _m.flags.writeable = False


def bell_weights_stack(rhos) -> np.ndarray:
    """Bell weights p_j = tr(E_j rho), shape (N, 4), of each 4x4 density matrix
    in a stack (N, 4, 4); roundoff clamped at zero, each row summing to one."""
    rhos = validate_density(rhos)
    # tr(E rho) = sum_ab E_ab rho_ba, and every E is real symmetric.
    p = (rhos.reshape(-1, 16) @ BELL_PROJECTORS.reshape(4, 16).T).real
    bad = p < -1e-12
    if bad.any():
        raise ValueError(f"negative Bell weight {p[bad][0]:.3e}")
    p = np.maximum(p, 0.0)
    total = p.sum(axis=1)
    bad = np.abs(total - 1.0) > 1e-12
    if bad.any():
        raise ValueError(f"channel weights must sum to 1, got {total[bad][0]:.15g}")
    return p


def bell_weights(rho) -> tuple[float, float, float, float]:
    """p_j = tr(E_j rho) for a 4x4 density matrix, roundoff clamped at zero,
    summing to one."""
    return tuple(float(x) for x in bell_weights_stack(stack_of_one(rho))[0])


def _pauli_mix(weights: np.ndarray, rho_in: np.ndarray) -> np.ndarray:
    """sum_j p_j s_j rho_in s_j for N channels, weights (N, 4), each applied to
    K inputs: rho_in (N, K, 2, 2), or (1, K, 2, 2) to share them.  Returns
    (N, K, 2, 2)."""
    channels = (weights @ _PAULI_CONJUGATIONS).reshape(-1, 4, 4)
    out = rho_in.reshape(rho_in.shape[0], -1, 4) @ channels
    return out.reshape(out.shape[:2] + (2, 2))


def apply_channel_stack(rhos, psis: Sequence[PureQubit]) -> np.ndarray:
    """Teleportation outputs (N, 2, 2): input psis[n] through the channel of resource rhos[n]."""
    return _pauli_mix(bell_weights_stack(rhos), _densities(_input_kets(psis))[:, None])[:, 0]


def apply_channel(rho, psi: PureQubit) -> np.ndarray:
    """Teleportation output sum_j p_j s_j |psi><psi| s_j as a 2x2 density matrix."""
    return apply_channel_stack(stack_of_one(rho), [psi])[0]


def channel_fidelity_stack(rhos, psis: Sequence[PureQubit]) -> np.ndarray:
    """<psi_n| Lambda_n(|psi_n><psi_n|) |psi_n>, shape (N,), for resources rhos[n]."""
    return _overlaps(_input_kets(psis), apply_channel_stack(rhos, psis))


def fidelity_from_weights(weights, cos_theta, phi):
    """Pointwise fidelity sum_j p_j <s_j>^2 from the Bloch components of the input.

    Vectorized over cos_theta and phi; equals channel_fidelity_stack on the same
    input (see tests), but costs no matrix algebra per point.
    """
    w = np.asarray(weights, dtype=float)
    u2 = np.square(cos_theta)
    # cos^2 phi = (1 + cos 2phi)/2 and sin^2 phi = (1 - cos 2phi)/2: one trig
    # call per sample.  The in-place steps keep the temporaries few.
    f = np.cos(np.multiply(2.0, phi))
    f *= 0.5 * (w[1] - w[2])
    f += 0.5 * (w[1] + w[2])
    f *= 1.0 - u2
    f += w[3] * u2
    f += w[0]
    return f


def output_fidelity_array(j, b_m, t, theta):
    """Fidelity of teleporting (theta, phi) through the XX thermal resource, over
    broadcastable (j, b_m, t, theta) arrays of valid inputs (not checked here).

    Independent of phi because the two |Phi> weights of the thermal state are
    equal:

        [2 sin^2(th) cosh(bB) + (3 + cos 2th) cosh(bJ) + 2 sin^2(th) sinh(bJ)]
        / [4 (cosh(bB) + cosh(bJ))]
    """
    ch_b, ch_j, sh_j, _ = hyperbolic_weights(j, b_m, t)
    s2 = np.sin(theta) ** 2
    num = 2.0 * s2 * ch_b + (3.0 + np.cos(2.0 * theta)) * ch_j + 2.0 * s2 * sh_j
    return num / (4.0 * (ch_b + ch_j))


def output_fidelity(p: ModelParams, theta: float) -> float:
    """Fidelity of teleporting (theta, phi) through the XX thermal resource at
    one parameter point (see output_fidelity_array)."""
    _reject_bool(theta, "theta")
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return float(output_fidelity_array(p.j, p.b_m, p.t, theta))


def average_fidelity_array(j, b_m, t):
    """Bloch-sphere average fidelity of the XX thermal channel over broadcastable
    (j, b_m, t) arrays of valid ModelParams fields (not checked here):

        (cosh(bB) + 2 cosh(bJ) + sinh(bJ)) / (3 (cosh(bB) + cosh(bJ)))

    Beats the classical ceiling 2/3 exactly when sinh(bJ) > cosh(bB).
    """
    ch_b, ch_j, sh_j, _ = hyperbolic_weights(j, b_m, t)
    return (ch_b + 2.0 * ch_j + sh_j) / (3.0 * (ch_b + ch_j))


def average_fidelity(p: ModelParams) -> FidelityReport:
    """Closed-form Bloch-sphere average fidelity at one parameter point."""
    return FidelityReport(average=float(average_fidelity_array(p.j, p.b_m, p.t)))


def _require_int(value, name: str) -> None:
    """Reject a bool or a non-integer count or seed: numpy would take True as 1
    and refuse 2.5 with its own TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _seeded_rng(seed: int) -> np.random.Generator:
    """numpy's default generator for a non-negative integer seed."""
    _require_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def mc_average_fidelity(rho, n: int, seed: int) -> FidelityReport:
    """Monte Carlo average over Haar-uniform inputs (cos theta ~ U[-1,1], phi ~ U[0,2pi)).

    Deterministic for a fixed seed; reports the standard error of the mean.
    phi is drawn only when the two |Phi> weights differ: otherwise its term
    is exactly zero, so the estimate is bitwise the one that draws it.
    """
    _require_int(n, "sample count")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    w = np.asarray(bell_weights(rho))
    rng = _seeded_rng(seed)
    u = rng.uniform(-1.0, 1.0, n)
    # Equal |Phi> weights (every XX thermal state) make the phi term exactly 0.
    phi = rng.uniform(0.0, 2.0 * np.pi, n) if w[1] != w[2] else 0.0
    f = fidelity_from_weights(w, u, phi)
    est = float(f.mean())
    err = float(f.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return FidelityReport(average=est, samples=n, stderr=err)


@functools.cache
def _quadrature_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre weights in cos(theta), and the fixed 16x4 input kets and
    density matrices, flattened to (64, 2) and (64, 2, 2).  Built on first use:
    numpy.polynomial is not otherwise imported."""
    nodes, gl_weights = np.polynomial.legendre.leggauss(_GL_NODES)
    kets = _kets(np.arccos(nodes)[:, None], np.array(_PHI_MEAN_ANGLES)).reshape(-1, 2)
    table = (gl_weights, kets, _densities(kets))
    for a in table:
        a.flags.writeable = False
    return table


def quadrature_average_fidelity_stack(rhos) -> np.ndarray:
    """Bloch-sphere average fidelity, shape (N,), of the channel of each resource
    in a stack (N, 4, 4), by quadrature through the channel machinery.

    Each of the fixed inputs goes through every resource's Pauli channel.  The
    phi average is exact (uniform four-point mean of a degree-2 trigonometric
    polynomial); the cos(theta) integral uses Gauss-Legendre nodes, exact for
    the quadratic integrand.  No closed form is consulted.
    """
    gl_weights, kets, rho_in = _quadrature_inputs()
    out = _pauli_mix(bell_weights_stack(rhos), rho_in[None])
    band = _overlaps(kets, out).reshape(-1, _GL_NODES, len(_PHI_MEAN_ANGLES)).mean(axis=2)
    return 0.5 * (band @ gl_weights)


# Pauli corrections per Bell outcome, index-matched to the projector set; this
# assignment is the one that turns the |Psi-> resource into the identity
# channel (phases are unobservable at the density-matrix level).
_CORRECTIONS = np.stack(SIGMA)
# Bell projectors on (input, A), identity on B: the measurement of the protocol.
_MEASUREMENT = np.stack([np.kron(e, SIGMA[0]) for e in BELL_PROJECTORS])
for _m in (_CORRECTIONS, _MEASUREMENT):
    _m.flags.writeable = False


def _trace_out_measured(m8: np.ndarray) -> np.ndarray:
    """Partial trace over the first two qubits of 8x8 operators (..., 8, 8)."""
    return m8.reshape(m8.shape[:-2] + (4, 2, 4, 2)).trace(axis1=-4, axis2=-2)


def protocol_oracle_stack(rhos, psis: Sequence[PureQubit]) -> np.ndarray:
    """Literal three-qubit run of the protocol for each pair (rhos[n], psis[n]).

    Builds |psi><psi| (x) rho on input (x) A (x) B, projects (input, A) onto
    each Bell state, applies the outcome-conditioned Pauli correction on B,
    and sums the weighted post-measurement states into the outputs (N, 2, 2).
    """
    rhos = validate_density(rhos)
    rho_in = _densities(_input_kets(psis))
    total = np.einsum("nab,ncd->nacbd", rho_in, rhos).reshape(-1, 8, 8)
    post = _MEASUREMENT @ total[:, None] @ _MEASUREMENT
    collapsed = _trace_out_measured(post)
    return (_CORRECTIONS @ collapsed @ _CORRECTIONS.conj().swapaxes(-1, -2)).sum(axis=1)


def protocol_oracle(rho, psi: PureQubit) -> np.ndarray:
    """Literal three-qubit run of the protocol on input (x) A (x) B: the 2x2
    output density matrix (see protocol_oracle_stack)."""
    return protocol_oracle_stack(stack_of_one(rho), [psi])[0]
