"""xxteleport benchmark: one workload, one seed, all metrics, outputs checked.

    python3 benchmarks/run.py --workload phase_map --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  With `--trace 0` it measures the end-to-end metrics of
BENCHMARK.json in fresh child processes; with `--trace 1` it runs a fixed
request list traced and reports the per-layer metrics.  Human-readable lines
and provenance come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  A full record, and the
spans of a traced run, go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import per_layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("phase_map", "crosscheck", "point_queries")

END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
              "throughput_rps": "1/s", "peak_rss_mb": "MB"}
# setup_s is the median of this many fresh imports, after one untimed import
# that fills the bytecode and page caches.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"worker {' '.join(args)} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, res: dict) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": res.get("numpy"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}, "git_commit": git_commit(),
            "requests": res.get("requests"), "attempted": res["attempted"],
            "failed": res["failed"], "mc_alarms": res["mc_alarms"],
            "mc_false_alarm_bound": res["mc_false_alarm_bound"]}


def measure(args) -> tuple[dict, dict]:
    """(metrics, child record) for one run."""
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        res = child("--workload", args.workload, "--seed", str(args.seed),
                    "--trace", "1", "--spans", str(spans))
        return res["per_layer"], res
    child("--import-only")
    setup = [child("--import-only")["import_s"] for _ in range(SETUP_REPEATS)]
    res = child("--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0")
    res["setup_samples_s"] = setup
    metrics = {"setup_s": statistics.median(setup),
               **{k: res[k] for k in END_TO_END if k != "setup_s"}}
    return metrics, res


def per_layer_unit(name: str) -> str:
    suffix = name.rpartition(".")[2]
    return {"calls": "count", "self_ms": "ms", "us_per_call": "us", "self_share": "ratio",
            "errors": "count", "calls_per_point": "calls/point",
            "calls_per_state": "calls/state", "output_bytes": "bytes/request",
            "mc_alarms": "count", "overhead_frac": "ratio"}[suffix]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xxteleport benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xxteleport" / "__init__.py").is_file():
        print(f"error: no xxteleport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        metrics, res = measure(args)
    except (ChildFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    prov = provenance(args, res)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "metrics": metrics, "child": res},
                                 indent=1) + "\n")
    names, unit = ((per_layer_metric_names(), per_layer_unit) if args.trace
                   else (END_TO_END, END_TO_END.get))
    shown = {k: {"value": metrics[k], "unit": unit(k)} for k in names}

    print(f"xxteleport benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, m in shown.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<44} {rate:.6g} ({res['failed']} of {res['attempted']} requests)")
    print(f"  {'mc_alarms':<44} {res['mc_alarms']} (false-alarm bound of the run "
          f"{res['mc_false_alarm_bound']:.2g})")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    print("provenance " + json.dumps(prov))
    print(json.dumps({"correct": res["failed"] == 0 and prov["mc_false_alarm_bound"] < 1e-6,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
