"""CLI stdout pinned byte for byte in every format.

The files under tests/data/ were written by the CLI before the closed forms
moved onto one broadcast core; the sweep grid includes eta >= 1 and cells of
zero concurrence.
"""

from pathlib import Path

import pytest

from xxteleport.cli import main

DATA = Path(__file__).parent / "data"

COMMANDS = {
    "table1": ["table1"],
    "critical": ["critical", "--eta", "0.3"],
    "sweep": ["sweep", "--eta-range", "0", "1.5", "--t-range", "0.05", "5", "--steps", "7", "5"],
}


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_stdout_matches_golden(capsys, name, fmt):
    assert main(COMMANDS[name] + ["--format", fmt]) == 0
    assert capsys.readouterr().out == (DATA / f"{name}.{fmt}").read_text(encoding="utf-8")
