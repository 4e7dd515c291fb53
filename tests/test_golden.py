"""CLI stdout pinned byte for byte in every format.

The files under tests/data/ were written by the CLI before the closed forms
moved onto one broadcast core (table1, critical, sweep) and before the CLI
rendered from columns (concurrence, fidelity, verify); sweep_negj, before
float columns were formatted once per distinct value.  The sweep grids
include eta >= 1 and cells of zero concurrence; at j = -1, b_m = -0.
`verify` is rendered from fixed check results, so its golden does not
depend on the machine's floating-point library; one of them is an infinite
Monte Carlo pull, which fails and sets exit code 1.
"""

from pathlib import Path

import pytest

from xxteleport import cli
from xxteleport.verify import CheckResult

DATA = Path(__file__).parent / "data"

COMMANDS = {
    "table1": ["table1"],
    "critical": ["critical", "--eta", "0.3"],
    "sweep": ["sweep", "--eta-range", "0", "1.5", "--t-range", "0.05", "5", "--steps", "7", "5"],
    "sweep_negj": ["sweep", "--j", "-1", "--eta-range", "0", "1.5", "--t-range", "0.05", "5",
                   "--steps", "16", "12"],
    "concurrence": ["concurrence", "--j", "1", "--bm", "0", "--t", "1"],
    "fidelity": ["fidelity", "--j", "1", "--bm", "0.5", "--t", "1", "--theta", "0.7"],
    "verify": ["verify", "--grid-size", "50", "--seed", "3"],
}
EXIT_CODES = {"verify": 1}

CHECKS = [
    CheckResult("gibbs-analytic-vs-matrix-exponential", 1.1102230246251565e-16, 1e-10),
    CheckResult("concurrence-closed-form-vs-spin-flip", 0.0, 1e-10),
    CheckResult("channel-vs-protocol-oracle", 1.1110291896568334e-16, 1e-10),
    CheckResult("pointwise-fidelity-vs-channel", 3.3306690738754696e-16, 1e-12),
    CheckResult("average-fidelity-vs-quadrature", 2.220446049250313e-16, 1e-10),
    CheckResult("average-fidelity-vs-monte-carlo", float("inf"), 3.0),
    CheckResult("table1-reproduction", 4.4897548790716625e-06, 1e-05),
]


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(capsys, monkeypatch, name, fmt):
    monkeypatch.setattr(cli, "run_verification", lambda seed, grid_size: CHECKS)
    assert cli.main(COMMANDS[name] + ["--format", fmt]) == EXIT_CODES.get(name, 0)
    assert capsys.readouterr().out == (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")
