"""Seeded request streams for the three workloads, how to run them, how to check them.

A request is a tuple whose first field names its kind.  `requests(workload,
seed)` yields an endless stream; the same seed gives the same stream.  Draws
are uniform over the stated ranges.  The quantities that set a request's
cost (grid sizes, sweep formats, point-query kinds) are stratified within
blocks, one draw per equal-width stratum in shuffled order, so that every
seed sees the same cost distribution and the run-to-run spread comes from
the program, not from the luck of the draw.

`execute` calls the package only through `xxteleport.cli.main` (stdout
captured) and the public names of `xxteleport`, looked up at call time so
that the tracer's wrappers are seen.  `check` compares the outcome with the
plain-math references in `checks`.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import sys

import checks

WORKLOADS = ("phase_map", "crosscheck", "point_queries")
FORMATS = ("csv", "json", "plain")

# phase_map: sweep grids of 1..60 points per axis over eta in [0, 1.5] and
# T in [0.05, 5] (J = 1), which covers the eta >= 1 regime.
SWEEP_STEPS = (1, 60)
SWEEP_ETA = (0.0, 1.5)
SWEEP_T = (0.05, 5.0)
# crosscheck: verify grids of 10..150 random points.
VERIFY_GRID = (10, 150)
# point_queries: J in [0.5, 2], eta = B_m/J in [0, 1.5], T/J in [0.05, 5].
POINT_J = (0.5, 2.0)
POINT_ETA = (0.0, 1.5)
POINT_T_OVER_J = (0.05, 5.0)
POINT_MC_SAMPLES = (checks.MC_MIN_SAMPLES, 4000)
# Kinds per block of 20 point queries, 2 of them out of domain.  In the
# seed's cost order (out of domain < fidelity < closed < critical < spinflip
# < mc ~ protocol) the median falls inside the critical_temperature class and
# p90 inside the mc/protocol class, never on a boundary between classes.
POINT_MIX = (("bad_eta", 1), ("bad_t", 1), ("fidelity", 3), ("closed", 3), ("critical", 3),
             ("spinflip", 3), ("mc", 3), ("protocol", 3))


def _strata_ints(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k integers uniform on [lo, hi], one per equal-width stratum, shuffled."""
    width = (hi - lo + 1) / k
    xs = [lo + int((i + rng.random()) * width) for i in range(k)]
    rng.shuffle(xs)
    return xs


def _phase_map_block(rng: random.Random):
    k = 15
    n_eta = _strata_ints(rng, k, *SWEEP_STEPS)
    n_t = _strata_ints(rng, k, *SWEEP_STEPS)
    fmts = list(FORMATS) * (k // len(FORMATS))
    rng.shuffle(fmts)
    for i in range(k):
        eta = sorted((rng.uniform(*SWEEP_ETA), rng.uniform(*SWEEP_ETA)))
        t = sorted((rng.uniform(*SWEEP_T), rng.uniform(*SWEEP_T)))
        yield ("sweep", fmts[i], n_eta[i], n_t[i], eta[0], eta[1], t[0], t[1])


def _crosscheck_block(rng: random.Random):
    for grid in _strata_ints(rng, 10, *VERIFY_GRID):
        yield ("verify", grid, rng.randrange(2**31))


def _point(rng: random.Random) -> tuple[float, float, float]:
    j = rng.uniform(*POINT_J)
    return j, rng.uniform(*POINT_ETA) * j, rng.uniform(*POINT_T_OVER_J) * j


def _theta(rng: random.Random) -> float:
    return math.acos(rng.uniform(-1.0, 1.0))


def _point_block(rng: random.Random):
    kinds = [kind for kind, count in POINT_MIX for _ in range(count)]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "closed" or kind == "spinflip":
            yield (kind, *_point(rng))
        elif kind == "fidelity":
            yield (kind, *_point(rng), _theta(rng))
        elif kind == "protocol":
            yield (kind, *_point(rng), _theta(rng), rng.uniform(0.0, 2.0 * math.pi))
        elif kind == "mc":
            yield (kind, *_point(rng), rng.randint(*POINT_MC_SAMPLES), rng.randrange(2**31))
        elif kind == "critical":
            yield (kind, rng.random())
        elif kind == "bad_eta":
            yield (kind, rng.uniform(1.0, 1.5))
        else:  # bad_t: a non-positive temperature
            yield (kind, rng.uniform(*POINT_J), rng.uniform(-1.5, 1.5), -rng.uniform(0.0, 5.0))


_BLOCKS = {"phase_map": _phase_map_block, "crosscheck": _crosscheck_block,
           "point_queries": _point_block}


def requests(workload: str, seed: int, stream: str = "measure"):
    """Endless request stream for (workload, seed); `stream` separates warm-up draws."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    block = _BLOCKS[workload]
    while True:
        yield from block(rng)


# ------------------------------------------------------------- execution ----

def _cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sys.modules["xxteleport.cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep(req):
    _, fmt, n_eta, n_t, eta_lo, eta_hi, t_lo, t_hi = req
    return _cli(["sweep", "--format", fmt, "--eta-range", repr(eta_lo), repr(eta_hi),
                 "--t-range", repr(t_lo), repr(t_hi), "--steps", str(n_eta), str(n_t)])


def _verify(req):
    _, grid, seed = req
    return _cli(["verify", "--format", "json", "--grid-size", str(grid), "--seed", str(seed)])


def _closed(req):
    xt = sys.modules["xxteleport"]
    p = xt.ModelParams(j=req[1], b_m=req[2], t=req[3])
    return xt.thermal_concurrence(p), xt.average_fidelity(p).average, xt.better_than_classical(p)


def _fidelity(req):
    xt = sys.modules["xxteleport"]
    return xt.output_fidelity(xt.ModelParams(j=req[1], b_m=req[2], t=req[3]), req[4])


def _spinflip(req):
    xt = sys.modules["xxteleport"]
    return xt.concurrence(xt.gibbs_state(xt.ModelParams(j=req[1], b_m=req[2], t=req[3])).rho).value


def _protocol(req):
    xt = sys.modules["xxteleport"]
    rho = xt.gibbs_state(xt.ModelParams(j=req[1], b_m=req[2], t=req[3])).rho
    psi = xt.PureQubit(theta=req[4], phi=req[5])
    return xt.protocol_oracle(rho, psi), xt.apply_channel(rho, psi)


def _mc(req):
    xt = sys.modules["xxteleport"]
    rho = xt.gibbs_state(xt.ModelParams(j=req[1], b_m=req[2], t=req[3])).rho
    return xt.mc_average_fidelity(rho, req[4], seed=req[5])


def _critical(req):
    return sys.modules["xxteleport"].critical_temperature(req[1])


def _bad_t(req):
    xt = sys.modules["xxteleport"]
    return xt.thermal_concurrence(xt.ModelParams(j=req[1], b_m=req[2], t=req[3]))


_EXECUTORS = {"sweep": _sweep, "verify": _verify, "closed": _closed, "fidelity": _fidelity,
              "spinflip": _spinflip, "protocol": _protocol, "mc": _mc, "critical": _critical,
              "bad_eta": _critical, "bad_t": _bad_t}


def execute(req):
    """Run one request.  Raises whatever the package raises."""
    return _EXECUTORS[req[0]](req)


# -------------------------------------------------------------- checking ----

def _expected_error(kind: str):
    xt = sys.modules["xxteleport"]
    return {"bad_eta": xt.NoClassicalAdvantageError, "bad_t": ValueError}.get(kind)


def check(req, result=None, exc: BaseException | None = None) -> tuple[str | None, bool]:
    """(problem, mc_alarm) for the outcome of `req`: its result, or the exception it raised."""
    kind = req[0]
    expected = _expected_error(kind)
    if exc is not None:
        if expected is not None and isinstance(exc, expected):
            return None, False
        return f"{kind}: undocumented exception {exc!r}", False
    if expected is not None:
        return f"{kind}: returned {result!r} instead of raising {expected.__name__}", False
    return _CHECKERS[kind](req, result)


def _check_sweep(req, result):
    code, out, err = result
    if code != 0 or err:
        return f"sweep exit {code}: {err.strip()}", False
    _, fmt, n_eta, n_t, eta_lo, eta_hi, t_lo, t_hi = req
    return checks.check_sweep(out, fmt, (eta_lo, eta_hi), (t_lo, t_hi), (n_eta, n_t)), False


def _check_verify(req, result):
    code, out, _ = result
    return checks.check_verify(out, code, req[1], req[2])


def _check_closed(req, result):
    ref = checks.Thermal(*req[1:4])
    conc, fid, beats = result
    want = ref.beats_classical()
    if not (checks.close(conc, ref.concurrence) and checks.close(fid, ref.average_fidelity)
            and (want is None or beats == want)):
        return f"closed form {result} != ({ref.concurrence}, {ref.average_fidelity}, {want})", False
    return None, False


def _check_fidelity(req, result):
    ref = checks.Thermal(*req[1:4]).pointwise_fidelity(req[4])
    return (None if checks.close(result, ref) else f"output_fidelity {result!r} != {ref!r}"), False


def _check_spinflip(req, result):
    ref = checks.Thermal(*req[1:4]).concurrence
    ok = abs(result - ref) <= checks.ORACLE_ATOL
    return (None if ok else f"spin-flip concurrence {result!r} != {ref!r}"), False


def _check_protocol(req, result):
    ref = checks.Thermal(*req[1:4]).channel_output(req[4], req[5])
    for name, out in zip(("protocol_oracle", "apply_channel"), result):
        got = [complex(out[0][0]), complex(out[0][1]), complex(out[1][0]), complex(out[1][1])]
        if max(abs(g - r) for g, r in zip(got, ref)) > checks.ORACLE_ATOL:
            return f"{name} output {got} != {ref}", False
    return None, False


def _check_mc(req, result):
    return checks.check_mc(result.average, result.stderr, result.samples, req[4],
                           checks.Thermal(*req[1:4]))


def _check_critical(req, result):
    t_ref, c_ref = checks.critical_reference(req[1])
    if not (checks.close(result.t_critical_over_j, t_ref, rtol=checks.CRITICAL_RTOL)
            and abs(result.residual_concurrence - c_ref) <= checks.CRITICAL_RTOL):
        return (f"critical({req[1]!r}) = ({result.t_critical_over_j!r}, "
                f"{result.residual_concurrence!r}) != ({t_ref!r}, {c_ref!r})"), False
    return None, False


_CHECKERS = {"sweep": _check_sweep, "verify": _check_verify, "closed": _check_closed,
             "fidelity": _check_fidelity, "spinflip": _check_spinflip,
             "protocol": _check_protocol, "mc": _check_mc, "critical": _check_critical}
