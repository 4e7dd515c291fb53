"""Where the thermal channel beats classical teleportation.

The average fidelity exceeds the classical ceiling 2/3 exactly when
sinh(J/T) > cosh(B_m/T), which requires B_m < J.  For eta = B_m/J in (0, 1)
the boundary temperature solves sinh(x) = cosh(eta*x) in x = J/T; the
concurrence still present at that boundary is the residual concurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entanglement import thermal_concurrence_array
from .model import ModelParams, _reject_bool, hyperbolic_weights
from .teleport import average_fidelity_array

ARCSINH_1 = float(np.arcsinh(1.0))  # ln(1 + sqrt 2)
BRACKET_HIGH = 50.0
ROOT_TOL = 1e-12
_MAX_BISECTIONS = 200

# Six-significant-figure reference rows (eta, T_c/J, residual concurrence)
# used as the golden values for the table1 check.
TABLE1_REFERENCE: tuple[tuple[float, float, float], ...] = (
    (0.1, 1.13105, 0.00161554),
    (0.2, 1.12029, 0.00654425),
    (0.3, 1.10193, 0.0150472),
    (0.4, 1.07525, 0.0276166),
    (0.5, 1.03904, 0.045085),
    (0.6, 0.991262, 0.068864),
    (0.7, 0.928278, 0.101495),
    (0.8, 0.842666, 0.148196),
    (0.9, 0.714112, 0.223103),
)
TABLE1_TOLERANCE = 1e-5


class NoClassicalAdvantageError(ValueError):
    """No temperature yields average fidelity above 2/3 (requires B_m < J)."""


@dataclass(frozen=True)
class CriticalPoint:
    """Solution of sinh(x) = cosh(eta*x) expressed as a boundary temperature."""

    eta: float
    t_critical_over_j: float
    residual_concurrence: float
    solver_residual: float


def better_than_classical_array(j, b_m, t):
    """Whether the average fidelity strictly exceeds 2/3, sinh(bJ) > cosh(bB_m),
    over broadcastable (j, b_m, t) arrays of valid ModelParams fields (not
    checked here)."""
    ch_b, _, sh_j, _ = hyperbolic_weights(j, b_m, t)
    return sh_j > ch_b


def better_than_classical(p: ModelParams) -> bool:
    """True iff the average fidelity strictly exceeds 2/3: sinh(bJ) > cosh(bB_m)."""
    return bool(better_than_classical_array(p.j, p.b_m, p.t))


def _boundary_gap(x: float, eta: float) -> float:
    return float(np.sinh(x) - np.cosh(eta * x))


def critical_temperature(eta: float) -> CriticalPoint:
    """Boundary temperature T_c/J below which the channel beats 2/3; it depends
    on eta = B_m/J alone.

    Bisection on x = J/T over [arcsinh(1), 50]; the bracket is valid for every
    eta in (0, 1) and the root is unique there.  The gap sinh(x) - cosh(eta x)
    is negative at arcsinh(1) for every eta > 0, but for eta below ~1e-8 it
    rounds to >= 0 there, so that sign is taken from the analysis, not from
    the rounded value.
    """
    _reject_bool(eta, "eta")
    if eta >= 1.0:
        raise NoClassicalAdvantageError(
            f"no classical-beating temperature exists for B_m >= J (eta = {eta})")
    if not eta > 0.0:  # NaN included
        raise ValueError(f"eta must lie in (0, 1), got {eta}")

    lo, hi = ARCSINH_1, BRACKET_HIGH
    if not _boundary_gap(hi, eta) > 0.0:
        raise ValueError(f"boundary bracket [{lo}, {hi}] does not change sign for eta = {eta}")
    for _ in range(_MAX_BISECTIONS):
        x = 0.5 * (lo + hi)
        f_x = _boundary_gap(x, eta)
        if abs(f_x) < ROOT_TOL:
            break
        if f_x < 0.0:
            lo = x
        else:
            hi = x
    t_over_j = 1.0 / x
    cr = float(thermal_concurrence_array(1.0, eta, t_over_j))
    return CriticalPoint(eta=eta, t_critical_over_j=t_over_j,
                         residual_concurrence=cr, solver_residual=abs(f_x))


def reproduce_table1() -> list[CriticalPoint]:
    """Critical points for eta = 0.1 .. 0.9 in steps of 0.1."""
    return [critical_temperature(round(0.1 * k, 1)) for k in range(1, 10)]


def table1_deviations(points: Sequence[CriticalPoint]) -> list[float]:
    """Deviation of each reproduced row from its TABLE1_REFERENCE row: the larger
    of the relative T_c/J error and the absolute residual-concurrence error.
    A row passes when its deviation is at most TABLE1_TOLERANCE."""
    return [max(abs(point.t_critical_over_j - t_ref) / t_ref,
                abs(point.residual_concurrence - cr_ref))
            for point, (_, t_ref, cr_ref) in zip(points, TABLE1_REFERENCE)]


def sweep(j: float, eta_grid: Sequence[float], t_grid: Sequence[float]) -> dict[str, np.ndarray]:
    """Concurrence / fidelity / threshold over a grid, eta-major then T.

    Returns equal-length 1-D columns j, b_m, t, concurrence, avg_fidelity and
    beats_classical; each entry equals the scalar entry point at its point.
    eta >= 1 is a legitimate regime here (entangled yet never classical
    beating), not an error.  An invalid point raises the ValueError that
    ModelParams gives for the first such point in eta-major order.
    """
    with np.errstate(all="ignore"):
        b_m = np.asarray(eta_grid, dtype=float) * j
        t = np.asarray(t_grid, dtype=float)
        if b_m.size and t.size:
            # ModelParams' rules over row 0, then over each later b_m at the coldest t:
            # a rule that fails at (b_m[i], t[k]) but not at (b_m[0], t[k]) involves
            # b_m, and fails at the coldest t first, since |b_m|/t only grows as t falls.
            ModelParams(j=j, b_m=float(b_m[0]), t=float(t[0]))  # a bool j, a bad first point
            bs = np.concatenate([np.full(t.size, b_m[0]), b_m[1:]])
            ts = np.concatenate([t, np.full(b_m.size - 1, t.min())])
            # A non-finite b_m or beta makes the last product non-finite too.
            energy = 2.0 * ((1.0 / ts) * np.maximum(abs(j), abs(bs)))
            bad = ~(np.isfinite(ts) & (ts > 0.0) & np.isfinite(energy))
            if bad.any():
                k = int(bad.argmax())
                ModelParams(j=j, b_m=float(bs[k]), t=float(ts[k]))
    b_m, t = (a.ravel() for a in np.meshgrid(b_m, t, indexing="ij"))
    return {"j": np.full(b_m.shape, j, dtype=float), "b_m": b_m, "t": t,
            "concurrence": thermal_concurrence_array(j, b_m, t),
            "avg_fidelity": average_fidelity_array(j, b_m, t),
            "beats_classical": better_than_classical_array(j, b_m, t)}
