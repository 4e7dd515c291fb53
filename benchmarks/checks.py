"""Correctness checks for benchmark outputs, independent of the package.

Nothing here imports numpy or xxteleport.  Every reference value is derived
with plain `math` from the physics of the two-qubit XX thermal state: the
populations of |00>, |11>, |Psi+> and |Psi-> are exp(-beta*E)/Z for the
energies B_m, -B_m, J and -J; the state is an X state; and teleportation
through it is the Pauli channel whose weights are its Bell populations.

Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
import math

# csv and plain output print floats with format ".12g": 12 significant digits,
# a relative rounding of up to 5e-12.  No comparison may be tighter than that.
RTOL = 1e-11
# Absolute floor for values in [0, 1] that can cancel to ~0 (concurrence).
ATOL = 1e-14
# The oracles (eigendecompositions, SVD) are compared at the tolerance that
# `verify` itself uses for them.
ORACLE_ATOL = 1e-10
# sinh(beta J) and cosh(beta B_m) closer than this are a rounding tie, for
# which either answer to "beats classical" is accepted.
TIE_RTOL = 1e-12
# Critical temperature: the package stops bisecting at |gap| < 1e-12.
CRITICAL_RTOL = 1e-9

# The seed's `verify` tolerance column, copied here so that a change to it
# (a loosened check) fails the benchmark instead of passing silently.
VERIFY_TOLERANCES = {
    "gibbs-analytic-vs-matrix-exponential": 1e-10,
    "concurrence-closed-form-vs-spin-flip": 1e-10,
    "channel-vs-protocol-oracle": 1e-10,
    "pointwise-fidelity-vs-channel": 1e-12,
    "average-fidelity-vs-quadrature": 1e-10,
    "average-fidelity-vs-monte-carlo": 3.0,
    "table1-reproduction": 1e-5,
}
MC_CHECK = "average-fidelity-vs-monte-carlo"
MC_ALARM_SE = VERIFY_TOLERANCES[MC_CHECK]

# Independent Monte Carlo bound, in standard errors.  For a thermal resource
# the sampled fidelity is a + c*u^2 with u uniform on [-1, 1], so its range
# about the mean is at most sqrt(5) standard deviations, and Bernstein's
# inequality bounds P(|mean - exact| > 8 SE) by 4.2e-12 for n >= 1000 samples
# and by 1.6e-11 for verify's 200000 samples, even if the estimated SE is 10%
# low.  README.md gives the per-run false-alarm rates.
MC_BOUND_SE = 8.0
MC_MIN_SAMPLES = 1000
MC_FALSE_ALARM_PER_TEST = 4.2e-12
VERIFY_FALSE_ALARM_PER_RUN = 5 * 1.6e-11


def close(value: float, ref: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(value - ref) <= rtol * max(abs(value), abs(ref)) + atol


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """Evenly spaced points with both ends included (a single point is lo)."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


class Thermal:
    """Reference quantities of the XX thermal state at (j, b_m, t)."""

    def __init__(self, j: float, b_m: float, t: float):
        beta = 1.0 / t
        e_j, e_mj = math.exp(beta * j), math.exp(-beta * j)
        e_b, e_mb = math.exp(beta * b_m), math.exp(-beta * b_m)
        z = e_b + e_mb + e_j + e_mj
        self.p00, self.p11 = e_mb / z, e_b / z
        self.p_plus, self.p_minus = e_mj / z, e_j / z
        self._sinh_j, self._cosh_b = 0.5 * (e_j - e_mj), 0.5 * (e_b + e_mb)

    @property
    def concurrence(self) -> float:
        """X-state concurrence 2 max(0, |rho_{01,10}| - sqrt(rho_00 rho_11))."""
        coherence = 0.5 * abs(self.p_plus - self.p_minus)
        return 2.0 * max(0.0, coherence - math.sqrt(self.p00 * self.p11))

    @property
    def bell_weights(self) -> tuple[float, float, float, float]:
        """Weights of |Psi->, |Phi->, |Phi+>, |Psi+> (identity, X, Y, Z corrections)."""
        phi = 0.5 * (self.p00 + self.p11)
        return self.p_minus, phi, phi, self.p_plus

    @property
    def average_fidelity(self) -> float:
        """Sphere average of a Pauli channel: (2 p_identity + 1) / 3."""
        return (2.0 * self.p_minus + 1.0) / 3.0

    def fidelity_sd(self) -> float:
        """Standard deviation of the fidelity over Haar-random inputs.

        With equal |Phi> weights the fidelity is a + c u^2, u = cos(theta)
        uniform on [-1, 1], and Var(u^2) = 4/45.
        """
        _, phi, _, psi_plus = self.bell_weights
        return abs(psi_plus - phi) * math.sqrt(4.0 / 45.0)

    def beats_classical(self) -> bool | None:
        """sinh(beta J) > cosh(beta B_m), or None for a rounding tie."""
        gap = self._sinh_j - self._cosh_b
        if abs(gap) <= TIE_RTOL * self._cosh_b:
            return None
        return gap > 0.0

    def pointwise_fidelity(self, theta: float) -> float:
        """sum_k p_k <s_k>^2 for the input at polar angle theta (phi drops out)."""
        p0, phi, _, p3 = self.bell_weights
        return p0 + phi * math.sin(theta) ** 2 + p3 * math.cos(theta) ** 2

    def channel_output(self, theta: float, phi: float) -> tuple[complex, ...]:
        """Output density matrix (row-major 2x2) for input (theta, phi).

        Conjugation by X, Y, Z flips two Bloch components each, so the Pauli
        channel scales the input Bloch vector by (lx, ly, lz).
        """
        p0, p1, p2, p3 = self.bell_weights
        lx, ly, lz = p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3
        rx = lx * math.sin(theta) * math.cos(phi)
        ry = ly * math.sin(theta) * math.sin(phi)
        rz = lz * math.cos(theta)
        return (0.5 * (1.0 + rz), complex(0.5 * rx, -0.5 * ry),
                complex(0.5 * rx, 0.5 * ry), 0.5 * (1.0 - rz))


def critical_reference(eta: float) -> tuple[float, float]:
    """(T_c/J, residual concurrence) for sinh(x) = cosh(eta x), bisected to the last bit."""
    lo, hi = math.asinh(1.0), 50.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if math.sinh(mid) < math.cosh(eta * mid):
            lo = mid
        else:
            hi = mid
    t = 1.0 / mid
    return t, Thermal(1.0, eta, t).concurrence


# ---------------------------------------------------------------- sweep ----

SWEEP_COLUMNS = ("j", "b_m", "t", "concurrence", "avg_fidelity", "beats_classical")
_BOOLS = {"true": True, "false": False}


def parse_sweep(text: str, fmt: str) -> list[tuple]:
    """Rows of a `sweep` document as (j, b_m, t, C, F, beats) tuples.

    Raises ValueError (or KeyError) when the document is malformed.
    """
    if fmt == "json":
        doc = json.loads(text)
        if doc["metadata"]["command"] != "sweep":
            raise ValueError("not a sweep document")
        rows = []
        for row in doc["result"]:
            if tuple(row) != SWEEP_COLUMNS or not isinstance(row["beats_classical"], bool):
                raise ValueError(f"bad json row {row}")
            rows.append(tuple(row[k] for k in SWEEP_COLUMNS))
        return rows
    lines = text.rstrip("\n").split("\n")
    if fmt == "csv":
        split = lambda line: line.split(",")  # noqa: E731
    elif fmt == "plain":
        if not lines[0].startswith("# xxteleport ") or " sweep " not in lines[0]:
            raise ValueError(f"bad plain header {lines[0]!r}")
        lines = lines[1:]
        split = str.split
    else:
        raise ValueError(f"unknown format {fmt}")
    if tuple(split(lines[0])) != SWEEP_COLUMNS:
        raise ValueError(f"bad column header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        f = split(line)
        if len(f) != len(SWEEP_COLUMNS):
            raise ValueError(f"bad row {line!r}")
        rows.append((float(f[0]), float(f[1]), float(f[2]), float(f[3]), float(f[4]),
                     _BOOLS[f[5]]))
    return rows


def check_sweep(text: str, fmt: str, eta_range, t_range, steps, j: float = 1.0) -> str | None:
    """Check a `sweep` document against plain-math references on the same grid."""
    try:
        rows = parse_sweep(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable {fmt} sweep output: {exc!r}"
    etas = linspace(eta_range[0], eta_range[1], steps[0])
    ts = linspace(t_range[0], t_range[1], steps[1])
    if len(rows) != len(etas) * len(ts):
        return f"expected {len(etas) * len(ts)} rows, got {len(rows)}"
    k = 0
    for eta in etas:
        b_m = eta * j
        for t in ts:
            rj, rb, rt, conc, fid, beats = rows[k]
            k += 1
            if not (close(rj, j) and close(rb, b_m) and close(rt, t)):
                return f"row {k}: grid point ({rj}, {rb}, {rt}) != ({j}, {b_m}, {t})"
            ref = Thermal(j, b_m, t)
            if not close(conc, ref.concurrence):
                return f"row {k}: concurrence {conc!r} != {ref.concurrence!r}"
            if not close(fid, ref.average_fidelity):
                return f"row {k}: avg_fidelity {fid!r} != {ref.average_fidelity!r}"
            want = ref.beats_classical()
            if want is not None and beats != want:
                return f"row {k}: beats_classical {beats} != {want}"
    return None


# --------------------------------------------------------------- verify ----

def check_verify(text: str, exit_code: int, grid_size: int, seed: int) -> tuple[str | None, bool]:
    """Check a json `verify` document.  Returns (problem, mc_alarm).

    A run whose only failing row is the Monte Carlo check, with a deviation
    within MC_BOUND_SE standard errors, is an alarm, not a failure.
    """
    try:
        doc = json.loads(text)
        meta, rows = doc["metadata"], doc["result"]
        if (meta["command"], meta["parameters"]["grid_size"], meta["seed"]) != \
                ("verify", grid_size, seed):
            return f"metadata does not echo the request: {meta}", False
        names = [row["check"] for row in rows]
        failing = []
        for row in rows:
            name, dev, tol = row["check"], float(row["max_deviation"]), row["tolerance"]
            if tol != VERIFY_TOLERANCES.get(name):
                return f"{name}: tolerance {tol!r} differs from {VERIFY_TOLERANCES.get(name)!r}", False
            if not (math.isfinite(dev) and dev >= 0.0):
                return f"{name}: deviation {dev!r} is not a finite non-negative number", False
            if row["status"] != ("pass" if dev <= tol else "fail"):
                return f"{name}: status {row['status']!r} contradicts {dev!r} vs {tol!r}", False
            if dev > tol:
                failing.append((name, dev))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable verify output: {exc!r}", False
    if names != list(VERIFY_TOLERANCES):
        return f"checks {names} differ from {list(VERIFY_TOLERANCES)}", False
    if exit_code != (1 if failing else 0):
        return f"exit code {exit_code} with failing checks {failing}", False
    if not failing:
        return None, False
    if len(failing) == 1 and failing[0][0] == MC_CHECK and failing[0][1] <= MC_BOUND_SE:
        return None, True
    return f"failing checks {failing}", False


# ---------------------------------------------------------------- points ----

def check_mc(average: float, stderr: float, samples: int, n: int, ref: Thermal) -> tuple[str | None, bool]:
    """Monte Carlo estimate against the exact mean and SD.  Returns (problem, alarm)."""
    if samples != n:
        return f"samples {samples} != {n}", False
    se = ref.fidelity_sd() / math.sqrt(n)
    gap = abs(average - ref.average_fidelity)
    if gap > MC_BOUND_SE * se + ATOL:
        return f"MC estimate {average!r} is {gap / se:.2f} SE from {ref.average_fidelity!r}", False
    if not 0.5 * se <= stderr <= 1.5 * se:
        return f"MC stderr {stderr!r} is not within [0.5, 1.5] x {se!r}", False
    return None, gap > MC_ALARM_SE * stderr
