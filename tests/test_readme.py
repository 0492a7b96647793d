import csv
import re
import shlex
from pathlib import Path

import pytest

from memqkd.cli import CHSH_COLUMNS, SIMULATE_COLUMNS, SWEEP_COLUMNS, run

README = Path(__file__).resolve().parents[1] / "README.md"
COLUMNS = {"simulate": SIMULATE_COLUMNS, "sweep": SWEEP_COLUMNS, "chsh": CHSH_COLUMNS}


def readme_commands() -> list[list[str]]:
    """The argv of each `memqkd ...` line in the README's sh blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["memqkd"]]


def test_readme_shows_each_command():
    assert [argv[0] for argv in readme_commands()] == [
        "simulate", "sweep", "sweep", "truth-table", "chsh", "rates"]


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0, capsys.readouterr().err
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], newline="") as f:
            assert next(csv.reader(f)) == COLUMNS[argv[0]]
