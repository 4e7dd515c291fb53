import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xxteleport import cli
from xxteleport.cli import _build_parser, main
from xxteleport.model import ModelParams
from xxteleport.phase import critical_temperature, sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out) if code == 0 else None
    return code, doc, err


class TestConcurrenceCommand:
    def test_basic_value(self, capsys):
        code, doc, _ = run_json(capsys, "concurrence", "--j", "1", "--bm", "0", "--t", "1")
        assert code == 0
        want = (math.sinh(1.0) - 1.0) / (1.0 + math.cosh(1.0))
        assert abs(doc["result"]["concurrence"] - want) < 1e-12
        assert abs(doc["result"]["concurrence"] - 0.068893) < 1e-6

    def test_above_critical_is_zero(self, capsys):
        code, doc, _ = run_json(capsys, "concurrence", "--j", "1", "--bm", "0", "--t", "2")
        assert code == 0
        assert doc["result"]["concurrence"] == 0.0

    def test_zero_temperature_rejected(self, capsys):
        code, out, err = run_cli(capsys, "concurrence", "--j", "1", "--bm", "0", "--t", "0")
        assert code == 2
        assert "temperature must be positive" in err

    def test_subnormal_temperature_rejected(self, capsys):
        code, out, err = run_cli(capsys, "concurrence", "--j", "1", "--bm", "0", "--t", "5e-324")
        assert (code, out) == (2, "")
        assert "1/t overflows" in err

    def test_verify_flag(self, capsys):
        code, doc, _ = run_json(capsys, "concurrence", "--j", "1.2", "--bm", "0.4",
                                "--t", "0.7", "--verify")
        assert code == 0
        assert doc["result"]["abs_difference"] < 1e-10

    def test_reduced_units(self, capsys):
        code, doc, _ = run_json(capsys, "concurrence", "--j", "2", "--eta", "0.25",
                                "--t-over-j", "0.5")
        assert code == 0
        assert doc["result"]["b_m"] == 0.5
        assert doc["result"]["t"] == 1.0


class TestFidelityCommand:
    def test_basic_value(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "0.5", "--t", "1")
        assert code == 0
        assert abs(doc["result"]["avg_fidelity"] - 0.67261) < 1e-5
        assert doc["result"]["beats_classical"] is True

    def test_strong_field(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "1", "--t", "0.5")
        assert code == 0
        assert doc["result"]["beats_classical"] is False

    def test_beats_classical_agrees_with_sweep_at_boundary(self, capsys):
        # Just below T_c the average fidelity rounds to exactly 2/3, while
        # sinh(J/T) > cosh(B_m/T) still holds; both commands must say so.
        b_m, t = 0.23292755250310831, 1.115111172470346
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", repr(b_m), "--t", repr(t))
        assert code == 0
        assert bool(sweep(1.0, [b_m], [t])["beats_classical"][0]) is True
        assert doc["result"]["beats_classical"] is True

    def test_infinite_temperature(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "0", "--t", "1e9")
        assert code == 0
        assert abs(doc["result"]["avg_fidelity"] - 0.5) < 1e-9

    def test_pointwise_option(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "0.5", "--t", "1",
                                "--theta", "0")
        assert code == 0
        want = math.cosh(1.0) / (math.cosh(0.5) + math.cosh(1.0))
        assert abs(doc["result"]["pointwise_fidelity"] - want) < 1e-12

    def test_monte_carlo_option(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "0.5", "--t", "1",
                                "--mc-samples", "200000", "--seed", "3")
        assert code == 0
        res = doc["result"]
        assert res["mc_samples"] == 200000
        assert abs(res["mc_estimate"] - res["avg_fidelity"]) < 3 * res["mc_stderr"]
        assert doc["metadata"]["seed"] == 3

    def test_monte_carlo_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "fidelity", "--j", "1", "--t", "1",
                                 "--mc-samples", "100", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_verify_flag(self, capsys):
        code, doc, _ = run_json(capsys, "fidelity", "--j", "1", "--bm", "0.3", "--t", "0.8",
                                "--verify")
        assert code == 0
        assert doc["result"]["oracle_max_deviation"] < 1e-10


class TestCriticalCommand:
    def test_reference_point(self, capsys):
        code, doc, _ = run_json(capsys, "critical", "--eta", "0.3")
        assert code == 0
        res = doc["result"]
        assert abs(res["t_critical_over_j"] - 1.10193) / 1.10193 < 1e-5
        assert abs(res["residual_concurrence"] - 0.0150472) < 1e-5
        assert res["solver_residual"] < 1e-12

    def test_no_solution_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--eta", "1.0")
        assert code == 3
        assert "no classical-beating temperature" in err

    def test_invalid_eta_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "critical", "--eta", "-0.5")
        assert code == 2

    def test_nan_eta_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--eta", "nan")
        assert (code, out) == (2, "")
        assert err == "error: eta must lie in (0, 1), got nan\n"

    def test_infinite_coupling_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "critical", "--eta", "0.5", "--j", "inf")
        assert (code, out) == (2, "")
        assert "j must be finite" in err


class TestTable1Command:
    def test_csv_rows_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert all(r["status"] == "pass" for r in rows)

    def test_json_rows(self, capsys):
        code, doc, _ = run_json(capsys, "table1")
        assert code == 0
        assert len(doc["result"]) == 9
        assert doc["result"][0]["eta"] == 0.1


class TestSweepCommand:
    def test_grid_cardinality(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--eta-range", "0.1", "0.9",
                               "--t-range", "0.1", "1.2", "--steps", "10", "12",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "j,b_m,t,concurrence,avg_fidelity,beats_classical"
        assert len(lines) == 1 + 120

    def test_round_trip_consistency(self, capsys):
        from xxteleport.phase import better_than_classical
        code, out, _ = run_cli(capsys, "sweep", "--eta-range", "0.2", "0.8",
                               "--t-range", "0.3", "1.1", "--steps", "4", "5",
                               "--format", "csv")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            p = ModelParams(j=float(row["j"]), b_m=float(row["b_m"]), t=float(row["t"]))
            assert row["beats_classical"] in ("true", "false")
            assert better_than_classical(p) == (row["beats_classical"] == "true")

    def test_zero_concurrence_above_critical(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--eta-range", "0.1", "0.9",
                               "--t-range", "0.2", "1.6", "--steps", "5", "8",
                               "--format", "csv")
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            if float(row["t"]) > 1.13459 * float(row["j"]):
                assert float(row["concurrence"]) == 0.0

    def test_frontier_matches_critical(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--eta-range", "0.1", "0.9",
                               "--t-range", "0.1", "1.2", "--steps", "9", "12",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cell = (1.2 - 0.1) / 11
        for eta in np.linspace(0.1, 0.9, 9):
            t_true = [float(r["t"]) for r in rows
                      if abs(float(r["b_m"]) - eta) < 1e-9 and r["beats_classical"] == "true"]
            t_boundary = critical_temperature(float(eta)).t_critical_over_j
            assert t_true, f"no classical-beating cell at eta={eta}"
            assert max(t_true) <= t_boundary + 1e-12
            assert t_boundary - max(t_true) < cell + 1e-12

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--steps", "2", "2",
                               "--format", "csv", "--out", str(path))
        assert code == 0
        assert out == ""
        assert len(path.read_text().strip().splitlines()) == 1 + 2 * 2

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--steps", "2", "2",
                               "--out", "/nonexistent-dir/sweep.csv")
        assert code == 4
        assert "cannot write" in err

    def test_broken_stdout_named(self, capsys, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code = main(["sweep", "--steps", "2", "2"])
        assert code == 4
        assert capsys.readouterr().err == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--steps", "0", "5")
        assert code == 2


class TestVerifyCommand:
    def test_passes_and_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--grid-size", "60", "--seed", "5")
        code2, out2, _ = run_cli(capsys, "verify", "--grid-size", "60", "--seed", "5")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "pass" in out1

    def test_corrupted_tolerance_fails(self, capsys, monkeypatch):
        import xxteleport.verify as verify_mod
        monkeypatch.setitem(verify_mod.DEFAULT_TOLERANCES,
                            "gibbs-analytic-vs-matrix-exponential", 0.0)
        code, out, _ = run_cli(capsys, "verify", "--grid-size", "20")
        assert code == 1
        assert "fail" in out

    def test_negative_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--grid-size", "1", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_json_status(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--grid-size", "40", "--seed", "0")
        assert code == 0
        checks = {row["check"]: row for row in doc["result"]}
        assert len(checks) == 7
        assert all(row["status"] == "pass" for row in checks.values())
        assert doc["metadata"]["seed"] == 0


class TestOutputEnvelope:
    def test_json_envelope_shape(self, capsys):
        code, doc, _ = run_json(capsys, "concurrence", "--j", "1", "--t", "1")
        assert code == 0
        assert set(doc) == {"metadata", "result"}
        meta = doc["metadata"]
        assert meta["tool"] == "xxteleport"
        assert meta["command"] == "concurrence"
        assert "version" in meta and "parameters" in meta

    def test_csv_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "concurrence", "--j", "1", "--bm", "0", "--t", "1",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        value = dict(zip(header.split(","), row.split(",")))["concurrence"]
        # printed at 12 significant digits: parsing loses at most 1e-12 relative
        want = (math.sinh(1.0) - 1.0) / (1.0 + math.cosh(1.0))
        assert abs(float(value) - want) / want < 1e-11

    def test_plain_output(self, capsys):
        code, out, _ = run_cli(capsys, "fidelity", "--j", "1", "--bm", "0.5", "--t", "1")
        assert code == 0
        assert "avg_fidelity = " in out
        assert "beats_classical = true" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "xxteleport", "critical", "--eta", "0.5",
             "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["result"]["t_critical_over_j"] - 1.03904) < 1e-4


def sweep_stdout(argv):
    """stdout of one `main` call; hypothesis cannot reuse pytest's capsys between examples."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


class TestRendering:
    @settings(max_examples=60, deadline=None)
    @given(j=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           eta_range=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=2),
           t_range=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2),
           steps=st.lists(st.integers(1, 12), min_size=2, max_size=2))
    def test_sweep_round_trip(self, j, eta_range, t_range, steps):
        want = sweep(j, np.linspace(*eta_range, steps[0]), np.linspace(*t_range, steps[1]))
        n = steps[0] * steps[1]
        argv = ["sweep", f"--j={j!r}", "--eta-range", *map(repr, eta_range),
                "--t-range", *map(repr, t_range), "--steps", *map(str, steps), "--format"]

        rows = json.loads(sweep_stdout(argv + ["json"]))["result"]
        assert len(rows) == n and all(list(row) == list(want) for row in rows)
        for name, column in want.items():
            got = [row[name] for row in rows]
            if column.dtype == bool:
                assert all(type(v) is bool for v in got) and got == column.tolist()
            else:  # bitwise, so -0.0 and 0.0 differ
                assert np.array_equal(np.array(got).view(np.uint64), column.view(np.uint64))

        rows = list(csv.DictReader(io.StringIO(sweep_stdout(argv + ["csv"]))))
        assert len(rows) == n and all(list(row) == list(want) for row in rows)
        for name, column in want.items():
            text = [("true" if v else "false") if column.dtype == bool else format(v, ".12g")
                    for v in column.tolist()]
            assert [row[name] for row in rows] == text

        lines = sweep_stdout(argv + ["plain"]).splitlines()
        assert lines[0].startswith("# xxteleport ")
        assert lines[1].split() == list(want)
        assert len(lines) == 2 + n


def reference_cells(column, fmt):
    """`cli._cells` as it was when every float was formatted on its own: the reference."""
    kind = column.dtype.kind if isinstance(column, np.ndarray) else None
    values = column.tolist() if kind else column
    if kind == "b":
        return ["true" if v else "false" for v in values]
    if fmt == "json":
        if kind == "f" and np.isfinite(column).all():
            return list(map(float.__repr__, values))
        return list(map(json.dumps, values))
    if kind == "f":
        return [format(v, ".12g") for v in values]
    return list(map(cli._fmt, values))


def render_outcome(columns, record, fmt):
    """The rendered text, or the type of the error rendering raised."""
    meta = cli._metadata("sweep", {"j": 1.0, "steps": [2, 3]})
    try:
        return cli._render(meta, columns, record, fmt)
    except Exception as exc:  # a plain table of no rows has no column widths
        return type(exc)


# Both zeros, both infinities, NaN, the smallest subnormal, a huge value and
# integral floats (1.0 prints 1 in plain and csv, 1.0 in json).
SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 1.0, -2.0, 0.1]


@st.composite
def render_columns(draw, n):
    """Float ndarray columns that repeat a few values, and bool and list columns."""
    columns = {}
    for i in range(draw(st.integers(1, 5))):
        pool = (draw(st.lists(st.sampled_from(SPECIAL_FLOATS), min_size=1, max_size=5))
                + draw(st.lists(st.floats(), max_size=2)))
        values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
        kind = draw(st.sampled_from(["float", "float", "bool", "list"]))
        if kind == "float":
            columns[f"c{i}"] = np.array(values, dtype=float)
        elif kind == "bool":
            columns[f"c{i}"] = np.array(values, dtype=float) > 0.0
        else:
            columns[f"c{i}"] = values
    return columns


class TestRenderCells:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), record=st.booleans(), fmt=st.sampled_from(["plain", "csv", "json"]))
    def test_render_matches_per_cell_reference(self, data, record, fmt):
        n = 1 if record else data.draw(st.integers(0, 40))
        columns = data.draw(render_columns(n))
        got = render_outcome(columns, record, fmt)
        with mock.patch.object(cli, "_cells", reference_cells):
            want = render_outcome(columns, record, fmt)
        assert got == want

    def test_signed_zeros_stay_apart(self):
        zeros = np.array([0.0, -0.0, 0.0, -0.0])
        assert cli._cells(zeros, "plain") == ["0", "-0", "0", "-0"]
        assert cli._cells(zeros, "json") == ["0.0", "-0.0", "0.0", "-0.0"]


class TestParserReuse:
    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_omitted_option_takes_its_default(self, capsys):
        point = ["fidelity", "--j", "1", "--bm", "0.5", "--t", "1"]
        code, doc, _ = run_json(capsys, *point, "--theta", "0.7")
        assert code == 0 and doc["result"]["theta"] == 0.7
        code, doc, _ = run_json(capsys, *point)
        assert code == 0
        assert "theta" not in doc["result"] and "pointwise_fidelity" not in doc["result"]

    def test_default_grid_after_explicit_steps(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "2", "3", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 6
        code, out, _ = run_cli(capsys, "sweep", "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 9 * 12

    def test_stdout_after_out_file(self, capsys, tmp_path):
        path = tmp_path / "table1.csv"
        code, out, _ = run_cli(capsys, "table1", "--format", "csv", "--out", str(path))
        assert (code, out) == (0, "")
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0 and out == path.read_text()
