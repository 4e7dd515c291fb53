"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 benchmarks/worker.py --import-only
    python3 benchmarks/worker.py --workload W --seed N --seconds S --trace 0
    python3 benchmarks/worker.py --workload W --seed N --trace 1 --spans PATH

Imports `xxteleport.cli` from the checkout's `src/` (timed), then runs the
workload as a single-client closed loop and prints one JSON object.  numpy
is imported only after the timed import, which includes it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
# Request caps keep the preallocated latency buffer, and the per-run Monte
# Carlo false-alarm bound, fixed whatever the program's speed.
MAX_REQUESTS = {"phase_map": 50_000, "crosscheck": 5_000, "point_queries": 1_000_000}
WARMUP_REQUESTS = {"phase_map": 6, "crosscheck": 2, "point_queries": 200}
# Fixed request counts of the traced run, so that call counts repeat exactly.
TRACE_REQUESTS = {"phase_map": 90, "crosscheck": 20, "point_queries": 20000}
# Stop measuring after this long even if MIN_REQUESTS is not reached.
HARD_CAP_S = 120.0


def import_package() -> float:
    """Import xxteleport.cli from SRC and return the seconds it took."""
    if not (SRC / "xxteleport" / "__init__.py").is_file():
        raise SystemExit(f"error: no xxteleport sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import xxteleport.cli  # noqa: F401
    elapsed = time.perf_counter() - t0
    if not Path(sys.modules["xxteleport"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported xxteleport from outside {SRC}")
    return elapsed


class Tally:
    """Outcome counts of every request a run sends, warm-up included."""

    def __init__(self):
        self.attempted = self.failed = self.mc_alarms = self.mc_tests = self.verify_runs = 0
        self.cli_requests = self.cli_bytes = 0
        self.check_s = 0.0
        self.problems: list[str] = []

    def record(self, req, result, exc) -> None:
        t0 = time.perf_counter()
        problem, alarm = workloads.check(req, result, exc)
        self.check_s += time.perf_counter() - t0
        self.attempted += 1
        self.mc_alarms += alarm
        self.mc_tests += req[0] == "mc"
        self.verify_runs += req[0] == "verify"
        if req[0] in ("sweep", "verify") and exc is None:
            self.cli_requests += 1
            self.cli_bytes += len(result[1])  # ASCII: characters are bytes
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{req!r}: {problem}")

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "mc_alarms": self.mc_alarms,
                "mc_false_alarm_bound": (self.mc_tests * checks.MC_FALSE_ALARM_PER_TEST
                                         + self.verify_runs * checks.VERIFY_FALSE_ALARM_PER_RUN),
                "check_s": self.check_s, "problems": self.problems}


def run_one(req):
    """(result, exception) of one request; a harness boundary, so it catches everything."""
    try:
        return workloads.execute(req), None
    except (Exception, SystemExit) as exc:
        return None, exc


def _timed_pass(reqs, call, tally: Tally) -> float:
    """Run and check each request through `call`; return the seconds spent in calls."""
    total = 0.0
    for req in reqs:
        t0 = time.perf_counter()
        result, exc = call(req)
        total += time.perf_counter() - t0
        tally.record(req, result, exc)
    return total


def _warm_up(workload: str, seed: int, tally: Tally) -> None:
    _timed_pass(itertools.islice(workloads.requests(workload, seed, "warmup"),
                                 WARMUP_REQUESTS[workload]), run_one, tally)


def quantiles(xs, qs) -> list[float]:
    """Linear-interpolated ('inclusive') quantiles of a float64 array, partitioned in place."""
    last = len(xs) - 1
    pos = [q * last for q in qs]
    idx = [(int(p), min(int(p) + 1, last)) for p in pos]
    xs.partition(sorted({i for pair in idx for i in pair}))
    return [float(xs[lo] + (xs[hi] - xs[lo]) * (p - lo)) for p, (lo, hi) in zip(pos, idx)]


def timed_run(workload: str, seed: int, seconds: float,
              min_requests: int = MIN_REQUESTS) -> dict:
    """Closed loop until `seconds` of client time and `min_requests` requests.

    Client time covers drawing each request and running it; the benchmark's
    own output checks run with the clock paused.
    """
    import numpy as np

    tally = Tally()
    _warm_up(workload, seed, tally)
    cap = MAX_REQUESTS[workload]
    latency = array("d", bytes(8 * cap))
    gen = workloads.requests(workload, seed)
    clock = time.perf_counter
    n, on_clock, begin = 0, 0.0, clock()
    while n < cap:
        g0 = clock()
        req = next(gen)
        t0 = clock()
        result, exc = run_one(req)
        t1 = clock()
        latency[n] = t1 - t0
        n += 1
        on_clock += t1 - g0
        tally.record(req, result, exc)
        if (on_clock >= seconds and n >= min_requests) or clock() - begin > HARD_CAP_S:
            break
    # In place, so that the statistics allocate nothing that grows with n.
    lat = np.frombuffer(latency, dtype=np.float64, count=n)
    busy = float(lat.sum())
    p50, p90 = quantiles(lat, (0.5, 0.9))
    return {"requests": n, "client_s": on_clock, "wall_s": clock() - begin,
            "latency_p50_ms": 1e3 * p50, "latency_p90_ms": 1e3 * p90,
            "throughput_rps": n / on_clock, "busy_share": busy / on_clock,
            **tally.as_dict()}


def traced_run(workload: str, seed: int, n_requests: int, spans_path: str | None) -> dict:
    """The same fixed requests untraced and traced; per-layer metrics from the spans."""
    import numpy as np

    reqs = list(itertools.islice(workloads.requests(workload, seed), n_requests))
    plain, traced = Tally(), Tally()
    _warm_up(workload, seed, plain)
    tracer = tracing.Tracer(distinct_args={
        "model.gibbs_state": lambda p: (p.j, p.b_m, p.t),
        "teleport.bell_weights": lambda rho: np.asarray(rho).tobytes(),
    })
    root = tracer.wrap(run_one, "harness.request")
    # Untraced and traced passes alternate chunk by chunk, so that drift in
    # the machine's speed cancels out of trace.overhead_frac.
    untraced_s = traced_s = 0.0
    step = max(1, n_requests // 10)
    for i in range(0, n_requests, step):
        untraced_s += _timed_pass(reqs[i:i + step], run_one, plain)
        tracer.install()
        try:
            traced_s += _timed_pass(reqs[i:i + step], root, traced)
        finally:
            tracer.uninstall()

    summary = tracer.summary()
    metrics = tracing.layer_metrics(summary, "harness.request")

    def per_distinct(name: str) -> float:
        distinct = len(tracer.distinct[name])
        return summary.get(name, {}).get("calls", 0) / distinct if distinct else 0.0

    metrics["model.gibbs_state.calls_per_point"] = per_distinct("model.gibbs_state")
    metrics["teleport.bell_weights.calls_per_state"] = per_distinct("teleport.bell_weights")
    metrics["cli.output_bytes"] = (traced.cli_bytes / traced.cli_requests
                                   if traced.cli_requests else 0.0)
    metrics["verify.mc_alarms"] = traced.mc_alarms
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    if spans_path:
        tracer.write_spans(spans_path)
    traced_counts = traced.as_dict()
    counts = {k: v + traced_counts[k] for k, v in plain.as_dict().items()}
    return {"requests": n_requests, "untraced_s": untraced_s, "traced_s": traced_s,
            "spans": len(tracer.name_of), "per_layer": metrics, "functions": summary,
            **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import_s = import_package()
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0
    import numpy

    if args.trace:
        out = traced_run(args.workload, args.seed, TRACE_REQUESTS[args.workload], args.spans)
    else:
        out = timed_run(args.workload, args.seed, args.seconds)
    out.update(import_s=import_s, numpy=numpy.__version__,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(out))
    return 0

if __name__ == "__main__":
    sys.exit(main())
