"""Cross-module consistency suite.

Every closed form in the package has an independent numerical route; this
module runs them against each other on seeded random grids and reports the
worst deviation per check.  Each oracle runs once over the whole grid as a
stacked (N, d, d) array computation, each closed form once over its (j, b_m,
t) arrays, and each check is one array comparison.  The CLI `verify`
subcommand is a thin wrapper.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_stack, thermal_concurrence_array
from .model import ModelParams, gibbs_state, gibbs_state_oracle_stack
from .phase import TABLE1_TOLERANCE, reproduce_table1, table1_deviations
from .teleport import (FidelityReport, PureQubit, _require_int, _seeded_rng,
                       apply_channel_stack, average_fidelity_array, channel_fidelity_stack,
                       mc_average_fidelity, output_fidelity_array, protocol_oracle_stack,
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


def random_params(rng: np.random.Generator) -> ModelParams:
    """Random model point with beta*energy bounded (safe for all oracle paths)."""
    return ModelParams(j=rng.uniform(-2.0, 2.0),
                       b_m=rng.uniform(-2.0, 2.0),
                       t=rng.uniform(0.1, 5.0))


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random two-qubit mixed state, normalized A A^dagger with complex Gaussian A (4x4)."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_pure_qubit(rng: np.random.Generator) -> PureQubit:
    """Haar-uniform input qubit: cos(theta) uniform on [-1, 1], phi on [0, 2pi)."""
    return PureQubit(theta=float(np.arccos(rng.uniform(-1.0, 1.0))),
                     phi=float(rng.uniform(0.0, 2.0 * np.pi)))


def _max_abs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def _mc_reports(rhos: np.ndarray, seeds: list[int]) -> list[FidelityReport]:
    """mc_average_fidelity of each resource with its seed, two at a time.

    One helper thread runs the odd-indexed points while the calling thread
    runs the even-indexed ones; numpy releases the GIL in the sampler and
    the kernel.  The helper is joined before this returns or raises, and an
    exception it raised is raised here.
    """
    reports: list[FidelityReport | None] = [None] * len(seeds)
    failures: list[BaseException] = []

    def run(first: int) -> None:
        for i in range(first, len(seeds), 2):
            reports[i] = mc_average_fidelity(rhos[i], _MC_SAMPLES, seed=seeds[i])

    def helper() -> None:
        try:
            run(1)
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    thread = threading.Thread(target=helper, name="xxteleport-mc")
    thread.start()
    try:
        run(0)
    finally:
        thread.join()
    if failures:
        raise failures[0]
    return reports


def run_verification(seed: int = 0, grid_size: int = 1000) -> list[CheckResult]:
    """Run every consistency check; deterministic for a fixed seed."""
    _require_int(grid_size, "grid size")
    if grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    rng = _seeded_rng(seed)
    # Draw order is fixed: the grid points, then a (state, input) pair per
    # point, then one input per point, then the Monte Carlo seeds.
    params = [random_params(rng) for _ in range(grid_size)]
    pairs = [(random_density(rng), random_pure_qubit(rng)) for _ in range(grid_size)]
    inputs = [random_pure_qubit(rng) for _ in params]
    mc_seeds = [int(rng.integers(2**31)) for _ in params[:_MC_POINTS]]

    j, b_m, t = np.array([(p.j, p.b_m, p.t) for p in params]).T
    thermal = np.stack([gibbs_state(p).rho for p in params])
    mixed = np.stack([rho for rho, _ in pairs])
    mixed_inputs = [psi for _, psi in pairs]
    closed_average = average_fidelity_array(j, b_m, t)

    dev = {
        "gibbs-analytic-vs-matrix-exponential":
            _max_abs(thermal, gibbs_state_oracle_stack(params)),
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

    mc = _mc_reports(thermal, mc_seeds)
    gap = np.abs(np.array([r.average for r in mc]) - closed_average[:len(mc)])
    stderr = np.array([r.stderr for r in mc])
    with np.errstate(divide="ignore", invalid="ignore"):
        pull = np.where(stderr > 0.0, gap / stderr, np.where(gap == 0.0, 0.0, np.inf))
    dev["average-fidelity-vs-monte-carlo"] = float(pull.max())

    dev["table1-reproduction"] = float(max(table1_deviations(reproduce_table1())))

    return [CheckResult(name, dev[name], tol) for name, tol in DEFAULT_TOLERANCES.items()]
