import csv
import dataclasses
import re
import shlex
from pathlib import Path

import pytest

from memqkd.cli import CHSH_COLUMNS, SIMULATE_COLUMNS, SWEEP_COLUMNS, run
from memqkd.config import load_preset
from memqkd.rates import QBER_INDIVIDUAL_LIMIT, build_report
from memqkd.session import expected_sessions, simulate_session

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


def readme_sentence(pattern: str) -> re.Match:
    """The README's match of `pattern`, its line breaks read as spaces."""
    match = re.search(pattern, " ".join(README.read_text().split()))
    assert match, pattern
    return match


def model_qber(cfg) -> float:
    """The sifted QBER that `expected_sessions` gives for scenario `cfg`."""
    point = (cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cfg.cycles, cfg.seed)
    (expected,) = expected_sessions([point])
    return (expected[5] + expected[7]) / (expected[4] + expected[6])


def test_readme_no_key_points(tmp_path, monkeypatch):
    match = readme_sentence(
        r"the `--axis N` sweep above gives no key at N = (\d+) and (\d+): their expected QBERs "
        r"from the cell probabilities are ([\d.]+) and ([\d.]+), above the ([\d.]+) limit, and "
        r"a (\S+)-cycle run prints r_s = 0 for both")
    cfg = load_preset("fig4-point-N124")
    assert float(match[6]) == cfg.cycles
    assert match[5] == f"{QBER_INDIVIDUAL_LIMIT:.4f}"
    for n, printed in [(match[1], match[3]), (match[2], match[4])]:
        seq = dataclasses.replace(cfg.sequence, n_pi=int(n) // cfg.sequence.n_sub)
        assert f"{model_qber(cfg.replace(sequence=seq)):.3f}" == printed
    (argv,) = [argv for argv in readme_commands()
               if argv[0] == "sweep" and argv[argv.index("--axis") + 1] == "N"]
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    with open(argv[argv.index("--out") + 1], newline="") as f:
        r_s = {row["N"]: float(row["r_s"]) for row in csv.DictReader(f)}
    assert r_s[match[1]] == r_s[match[2]] == 0.0


def test_readme_trillion_cycle_posterior():
    match = readme_sentence(
        r"On the fig4 preset at (\S+) cycles, K/N = (\d+)/(\d+) = ([\d.]+) with the interval "
        r"\[([\d.]+), ([\d.]+)\]")
    cfg = load_preset("fig4-point-N124").replace(cycles=int(float(match[1])))
    point = (cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cfg.cycles, cfg.seed)
    _, report = simulate_session(*point)
    rate = build_report(report, cfg)
    assert (str(report.errors), str(report.sifted)) == match.group(2, 3)
    printed = [f"{e:.6f}" for e in (rate.qber_ml, rate.qber_low, rate.qber_high)]
    assert printed == list(match.group(4, 5, 6))
