"""Cross-module consistency suite.

Every closed form in the package has an independent numerical route; this
module runs them against each other on a seeded random grid and reports the
worst deviation per check.  The grid is drawn as arrays that take the stream
as point-by-point draws would; each oracle and closed form then runs once over
it, and each check is one array comparison.  The CLI `verify` wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_stack, thermal_concurrence_array
from .model import ModelParams, gibbs_state_array, gibbs_state_oracle_array
from .phase import TABLE1_TOLERANCE, reproduce_table1, table1_deviations
from .teleport import (PureQubit, _require_int, _seeded_rng, apply_channel_stack,
                       average_fidelity_array, channel_fidelity_stack, mc_average_fidelity,
                       output_fidelity_array, protocol_oracle_stack,
                       quadrature_average_fidelity_stack)

DEFAULT_TOLERANCES: dict[str, float] = {
    "gibbs-analytic-vs-matrix-exponential": 1e-10,
    "concurrence-closed-form-vs-spin-flip": 1e-10,
    "channel-vs-protocol-oracle": 1e-10,
    "pointwise-fidelity-vs-channel": 1e-12,
    "average-fidelity-vs-quadrature": 1e-10,
    "average-fidelity-vs-monte-carlo": 3.0,  # units of MC standard error
    "table1-reproduction": TABLE1_TOLERANCE,
}

_MC_POINTS = 5
_MC_SAMPLES = 200_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


_GRID_BOUNDS = ((-2.0, -2.0, 0.1), (2.0, 2.0, 5.0))
_INPUT_BOUNDS = ((-1.0, 0.0), (1.0, 2.0 * np.pi))


def _normalized_grams(z: np.ndarray) -> np.ndarray:
    """A A^dagger / tr for complex Gaussian A = z[..., 0, :, :] + i z[..., 1, :, :]."""
    a = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    m = a @ a.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def _haar_qubits(u: np.ndarray) -> list[PureQubit]:
    """Input qubits from uniform (cos theta, phi) rows u (N, 2)."""
    return [PureQubit(*a) for a in zip(np.arccos(u[:, 0]).tolist(), u[:, 1].tolist())]


def random_params(rng: np.random.Generator) -> ModelParams:
    """Random model point with beta*energy bounded (safe for all oracle paths)."""
    return ModelParams(*rng.uniform(*_GRID_BOUNDS).tolist())


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random two-qubit mixed state, normalized A A^dagger with complex Gaussian A (4x4)."""
    return _normalized_grams(rng.normal(size=(2, 4, 4)))


def random_pure_qubit(rng: np.random.Generator) -> PureQubit:
    """Haar-uniform input qubit: cos(theta) uniform on [-1, 1], phi on [0, 2pi)."""
    return _haar_qubits(rng.uniform(*_INPUT_BOUNDS, size=(1, 2)))[0]


def _draw(rng: np.random.Generator, n: int):
    """Grid points (n, 3), a (state, input) pair and an input per point, and the
    Monte Carlo seeds, in that order; each array takes the stream as per-point draws."""
    grid = rng.uniform(*_GRID_BOUNDS, size=(n, 3))
    z, u = np.empty((n, 2, 4, 4)), np.empty((n, 2))
    for i in range(n):  # scalar uniforms: cheaper than one call with array bounds
        z[i] = rng.normal(size=(2, 4, 4))
        u[i] = rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    inputs = rng.uniform(*_INPUT_BOUNDS, size=(n, 2))
    mc_seeds = [int(rng.integers(2**31)) for _ in range(min(n, _MC_POINTS))]
    return grid, _normalized_grams(z), _haar_qubits(u), _haar_qubits(inputs), mc_seeds


def _max_abs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def run_verification(seed: int = 0, grid_size: int = 1000) -> list[CheckResult]:
    """Run every consistency check; deterministic for a fixed seed."""
    _require_int(grid_size, "grid size")
    if grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    grid, mixed, mixed_inputs, inputs, mc_seeds = _draw(_seeded_rng(seed), grid_size)
    j, b_m, t = grid.T
    thermal = gibbs_state_array(j, b_m, t)
    closed_average = average_fidelity_array(j, b_m, t)

    dev = {
        "gibbs-analytic-vs-matrix-exponential":
            _max_abs(thermal, gibbs_state_oracle_array(j, b_m, t)),
        "concurrence-closed-form-vs-spin-flip":
            _max_abs(thermal_concurrence_array(j, b_m, t), concurrence_stack(thermal)),
        "channel-vs-protocol-oracle":
            _max_abs(protocol_oracle_stack(mixed, mixed_inputs),
                     apply_channel_stack(mixed, mixed_inputs)),
        "pointwise-fidelity-vs-channel":
            _max_abs(output_fidelity_array(j, b_m, t, np.array([psi.theta for psi in inputs])),
                     channel_fidelity_stack(thermal, inputs)),
        "average-fidelity-vs-quadrature":
            _max_abs(closed_average, quadrature_average_fidelity_stack(thermal)),
    }

    mc = [mc_average_fidelity(rho, _MC_SAMPLES, seed=s) for rho, s in zip(thermal, mc_seeds)]
    gap = np.abs(np.array([r.average for r in mc]) - closed_average[:len(mc)])
    stderr = np.array([r.stderr for r in mc])
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(stderr > 0.0, gap / stderr, np.where(gap == 0.0, 0.0, np.inf))
    dev["average-fidelity-vs-monte-carlo"] = float(pull.max())

    dev["table1-reproduction"] = float(max(table1_deviations(reproduce_table1())))

    return [CheckResult(name, dev[name], tol) for name, tol in DEFAULT_TOLERANCES.items()]
