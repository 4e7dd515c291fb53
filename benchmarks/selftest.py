"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import xxteleport.cli  # noqa: E402


def cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = xxteleport.cli.main(list(argv))
    return code, out.getvalue()


# ------------------------------------------------------------- generator ----

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = lambda seed, stream="measure": list(  # noqa: E731
        itertools.islice(workloads.requests(workload, seed, stream), 60))
    assert first(7) == first(7)
    assert first(7) != first(8)
    assert first(7) != first(7, "warmup")


def test_generator_draws_stay_in_their_ranges():
    for req in itertools.islice(workloads.requests("phase_map", 3), 300):
        _, fmt, n_eta, n_t, eta_lo, eta_hi, t_lo, t_hi = req
        assert fmt in workloads.FORMATS and 1 <= n_eta <= 60 and 1 <= n_t <= 60
        assert 0.0 <= eta_lo <= eta_hi <= 1.5 and 0.05 <= t_lo <= t_hi <= 5.0
    grids = [req[1] for req in itertools.islice(workloads.requests("crosscheck", 3), 300)]
    assert min(grids) == 10 and max(grids) == 150
    kinds = [req[0] for req in itertools.islice(workloads.requests("point_queries", 3), 2000)]
    assert kinds.count("bad_eta") + kinds.count("bad_t") == 200


# -------------------------------------------------------------- checkers ----

def test_references_reproduce_the_paper_table():
    from xxteleport.phase import TABLE1_REFERENCE

    for eta, t_ref, c_ref in TABLE1_REFERENCE:
        t, c = checks.critical_reference(eta)
        assert abs(t - t_ref) / t_ref < 1e-5 and abs(c - c_ref) < 1e-5


def test_thermal_reference_matches_textbook_forms():
    ref = checks.Thermal(1.3, 0.4, 0.7)
    a, b = 1.3 / 0.7, 0.4 / 0.7
    denominator = math.cosh(a) + math.cosh(b)
    assert math.isclose(ref.concurrence, (math.sinh(a) - 1) / denominator, rel_tol=1e-13)
    assert math.isclose(ref.average_fidelity,
                        (math.cosh(b) + 2 * math.cosh(a) + math.sinh(a)) / (3 * denominator),
                        rel_tol=1e-13)


def _perturb(text: str, fmt: str) -> str:
    """Change the second row's avg_fidelity by one part in 1e9."""
    if fmt == "json":
        doc = json.loads(text)
        doc["result"][1]["avg_fidelity"] *= 1.0 + 1e-9
        return json.dumps(doc, indent=2)
    lines = text.split("\n")
    row = 3 if fmt == "plain" else 2
    fields = lines[row].split() if fmt == "plain" else lines[row].split(",")
    old = fields[4]
    lines[row] = lines[row].replace(old, format(float(old) * (1.0 + 1e-9), ".12g"), 1)
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_sweep_checker_accepts_the_program_and_rejects_a_perturbed_value(fmt):
    code, text = cli("sweep", "--format", fmt, "--eta-range", "0.2", "1.4",
                     "--t-range", "0.05", "3", "--steps", "4", "5")
    assert code == 0
    assert checks.check_sweep(text, fmt, (0.2, 1.4), (0.05, 3.0), (4, 5)) is None
    assert checks.check_sweep(_perturb(text, fmt), fmt, (0.2, 1.4), (0.05, 3.0), (4, 5))
    assert checks.check_sweep(text, fmt, (0.2, 1.4), (0.05, 3.0), (4, 6))


def test_sweep_checker_accepts_either_answer_on_a_rounding_tie():
    # eta = 0 and sinh(1/t) = 1 exactly at t = 1/asinh(1): a tie up to rounding.
    t = 1.0 / math.asinh(1.0)
    code, text = cli("sweep", "--format", "json", "--eta-range", "0", "0",
                     "--t-range", repr(t), repr(t), "--steps", "1", "1")
    doc = json.loads(text)
    for answer in (True, False):
        doc["result"][0]["beats_classical"] = answer
        assert checks.check_sweep(json.dumps(doc), "json", (0.0, 0.0), (t, t), (1, 1)) is None


def test_verify_checker_rejects_a_loosened_tolerance_column():
    code, text = cli("verify", "--format", "json", "--grid-size", "3", "--seed", "4")
    assert checks.check_verify(text, code, 3, 4) == (None, code == 1)
    doc = json.loads(text)
    doc["result"][0]["tolerance"] = 1e-8
    problem, _ = checks.check_verify(json.dumps(doc), code, 3, 4)
    assert problem and "tolerance" in problem


def _verify_doc(deviations: dict[str, float]) -> tuple[str, int]:
    """A verify document with these deviations, and the exit code verify gives it."""
    rows, code = [], 0
    for name, tol in checks.VERIFY_TOLERANCES.items():
        dev = deviations.get(name, 0.0)
        rows.append({"check": name, "max_deviation": dev, "tolerance": tol,
                     "status": "pass" if dev <= tol else "fail"})
        code |= dev > tol
    meta = {"command": "verify", "parameters": {"grid_size": 5}, "seed": 1}
    return json.dumps({"metadata": meta, "result": rows}), code


def test_monte_carlo_alarm_is_reported_within_the_bound_and_fails_beyond_it():
    text, code = _verify_doc({checks.MC_CHECK: 4.04})
    assert checks.check_verify(text, code, 5, 1) == (None, True)
    text, code = _verify_doc({checks.MC_CHECK: checks.MC_BOUND_SE * 1.01})
    assert checks.check_verify(text, code, 5, 1)[0]
    text, code = _verify_doc({checks.MC_CHECK: 4.0, "channel-vs-protocol-oracle": 1e-9})
    assert checks.check_verify(text, code, 5, 1)[0]
    text, _ = _verify_doc({checks.MC_CHECK: 4.0})
    assert checks.check_verify(text, 0, 5, 1)[0]


def test_a_real_monte_carlo_alarm_is_not_a_failure():
    code, text = cli("verify", "--format", "json", "--grid-size", "50", "--seed", "122")
    assert code == 1  # 4.04 SE on the Monte Carlo row; every value is right
    assert checks.check_verify(text, code, 50, 122) == (None, True)


def test_point_mc_checker_uses_the_exact_standard_error():
    ref = checks.Thermal(1.0, 0.3, 0.8)
    se = ref.fidelity_sd() / math.sqrt(2000)
    assert checks.check_mc(ref.average_fidelity + 2 * se, se, 2000, 2000, ref) == (None, False)
    assert checks.check_mc(ref.average_fidelity + 4 * se, se, 2000, 2000, ref) == (None, True)
    assert checks.check_mc(ref.average_fidelity + 9 * se, se, 2000, 2000, ref)[0]
    assert checks.check_mc(ref.average_fidelity, 3 * se, 2000, 2000, ref)[0]


def test_monte_carlo_false_alarm_bound_holds_at_the_request_caps():
    point_mc_share = dict(workloads.POINT_MIX)["mc"] / sum(dict(workloads.POINT_MIX).values())
    assert (worker.MAX_REQUESTS["point_queries"] * point_mc_share
            * checks.MC_FALSE_ALARM_PER_TEST) < 1e-6
    assert worker.MAX_REQUESTS["crosscheck"] * checks.VERIFY_FALSE_ALARM_PER_RUN < 1e-6


def test_bernstein_rates_behind_the_bound():
    def rate(t, n):  # two-sided Bernstein tail at t SD for range sqrt(5) SD
        return 2 * math.exp(-t * t / (2 * (1 + math.sqrt(5) * t / (3 * math.sqrt(n)))))

    assert rate(checks.MC_BOUND_SE, checks.MC_MIN_SAMPLES) <= checks.MC_FALSE_ALARM_PER_TEST
    assert 5 * rate(0.9 * checks.MC_BOUND_SE, 200_000) <= checks.VERIFY_FALSE_ALARM_PER_RUN


# --------------------------------------------------------------- tracing ----

def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [15, 20).
    parents = [tracing.ROOT, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 20, 90]
    assert tracing.self_times(parents, starts, ends) == [30, 25, 5, 40]


def test_tracer_sees_calls_through_every_binding_and_uninstalls():
    import xxteleport
    import xxteleport.phase

    original = xxteleport.phase.sweep
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert xxteleport.cli.sweep is xxteleport.phase.sweep is xxteleport.sweep
        cli("sweep", "--steps", "2", "3")
        xxteleport.sweep(1.0, [0.5], [1.0])
        xxteleport.ModelParams(j=1.0, b_m=0.0, t=1.0)
    finally:
        tracer.uninstall()
    assert xxteleport.phase.sweep is original and xxteleport.cli.sweep is original
    summary = tracer.summary()
    assert summary["phase.sweep"]["calls"] == 2
    assert summary["model.ModelParams"]["calls"] == 2 * 3 + 1 + 1
    assert summary["cli.main"]["calls"] == 1


# ------------------------------------------------------------------ runs ----

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_passes_a_tiny_smoke_run(workload, tmp_path):
    res = worker.timed_run(workload, 5, seconds=0.0, min_requests=3)
    assert res["failed"] == 0 and res["requests"] == 3, res["problems"]
    assert 0 < res["latency_p50_ms"] <= res["latency_p90_ms"]

    spans = tmp_path / "spans.tsv.gz"
    res = worker.traced_run(workload, 5, 3, str(spans))
    assert res["failed"] == 0, res["problems"]
    assert set(tracing.per_layer_metric_names()) <= set(res["per_layer"])
    assert spans.stat().st_size > 0
    calls = {k: v for k, v in res["per_layer"].items() if k.endswith(".calls")}
    again = worker.traced_run(workload, 5, 3, None)["per_layer"]
    assert calls == {k: again[k] for k in calls}


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in bench["per_layer"]] == tracing.per_layer_metric_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert len(bench["per_layer"]) <= 128


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "phase_map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
