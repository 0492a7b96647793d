import argparse
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import memqkd
from memqkd.cli import CHSH_COLUMNS, SIMULATE_COLUMNS, SWEEP_COLUMNS, run
from memqkd.config import load_preset, serialize_config
from oracles import TruncatedBetaOracle

FAST_QKD = textwrap.dedent(
    """
    [sequence]
    n_pi = 4
    n_sub = 2
    [channel]
    n_m = 1.2
    [noise]
    eta_detect = 0.6
    [run]
    cycles = 30000
    seed = 11
    """
)

FAST_CHSH = textwrap.dedent(
    """
    [sequence]
    n_pi = 4
    n_sub = 2
    [channel]
    n_m = 1.2
    [noise]
    eps_leak = 0.0
    p_mw = 0.0
    p_scatter_dephase = 0.0
    f_readout = 1.0
    f_init = 1.0
    eta_detect = 1.0
    [parties]
    mode = chsh
    [run]
    cycles = 60000
    seed = 13
    """
)


# The exact text of two runs: a change to any written digit shows here.
PINNED_SWEEP = textwrap.dedent(
    """\
    N,n_m,n_p,p_AB,sifted_rate,qber_ml,qber_lo,qber_hi,r_s,R,R_over_Rmax,R_over_PLOB,seed
    60,0.02,0.000333333333,1.11111111e-07,9.66666667e-07,0.103448276,0.042125476,0.15764888,0.232915512,2.25151661e-07,4.0527299,1.40719788,7
    62,0.02,0.000322580645,1.04058273e-07,6.4516129e-07,0,0,0.0530957311,1,6.4516129e-07,12.4,4.30555556,8
    124,0.02,0.000161290323,2.60145682e-08,2.58064516e-07,0.0625,0,0.133175546,0.486329576,1.25504407e-07,9.64877878,3.35027041,9
    126,0.02,0.000158730159,2.51952633e-08,2.53968254e-07,0.125,0.0338408449,0.2026132,0.11249312,2.85696812e-08,2.26786129,0.787451838,10
    504,0.02,3.96825397e-05,1.57470396e-09,8.73015873e-08,0.0909090909,0.0180321281,0.149540098,0.306775511,2.67819891e-08,34.0152687,11.8108572,11
    """
)
PINNED_SWEEP_ARGV = ["sweep", "--preset", "fig4-point-N124", "--axis", "N",
                     "--values", "60,62,124,126,504", "--cycles", "1000000", "--seed", "7"]
PINNED_SIMULATE_CSV = textwrap.dedent(
    """\
    N,n_m,n_p,p_AB,cycles,heralds,coincidences,discarded,same_party,sifted,errors,qber_ml,qber_lo,qber_hi,r_s,sifted_per_use,sifted_per_occupancy,secure_per_use,R_over_Rmax,R_over_PLOB,clock_rate_hz,seed
    124,0.02,0.000161290323,2.60145682e-08,1000000,8330,36,0,0,17,0,0,0,0.0616664179,1,2.74193548e-07,1.37096774e-07,2.74193548e-07,21.08,7.31944444,760027.459,41
    """
)
PINNED_SIMULATE_SUMMARY = textwrap.dedent(
    """\
    session: N=124 slots/cycle, n_m=0.02, p_AB=2.601e-08, cycles=1,000,000
      heralding efficiency: eta_detect=0.423
      heralds=8,330  coincidences=36  discarded=0  same-party=0
      sifted: XX 9 (0 err)  YY 8 (0 err)
      QBER ML=0  68.2% interval [0, 0.0616664179]  r_s=1.0000
      sifted rate: 2.7419e-07/use  1.3710e-07/occupancy
      secure rate: 2.7419e-07/use  R/Rmax=21.080  R/(1.44p)=7.319
      confidence above bounds: Rmax 0.9299  PLOB 0.9010
      modeled wall clock: 163.2 s  clock rate 0.760 MHz
    """
)


def test_pinned_sweep_text(capsys):
    assert run(PINNED_SWEEP_ARGV) == 0
    assert capsys.readouterr() == (PINNED_SWEEP, "")


def test_pinned_simulate_text(capsys):
    assert run(["simulate", "--preset", "fig4-point-N124", "--cycles", "1000000"]) == 0
    assert capsys.readouterr() == (PINNED_SIMULATE_CSV, PINNED_SIMULATE_SUMMARY)


def test_sweep_computes_no_confidence_level(monkeypatch, capsys):
    # No sweep column holds a confidence level, so a sweep never solves for one.
    def unused(*args):
        raise AssertionError("a sweep computed a confidence level")

    monkeypatch.setattr(memqkd.rates, "_confidence", unused)
    assert run(PINNED_SWEEP_ARGV) == 0
    assert capsys.readouterr() == (PINNED_SWEEP, "")


# The help text of each subcommand at 80 columns; "" is the top-level parser.
PINNED_HELP = {
    "": textwrap.dedent(
        """\
        usage: memqkd [-h] {simulate,sweep,truth-table,chsh,rates} ...

        Memory-assisted MDI-QKD simulator and rate calculator

        positional arguments:
          {simulate,sweep,truth-table,chsh,rates}
            simulate            run one session
            sweep               sweep N or n_m
            truth-table         print the BSM truth table
            chsh                run a Bell-test session
            rates               analytic rate report

        options:
          -h, --help            show this help message and exit
        """
    ),
    "rates": textwrap.dedent(
        """\
        usage: memqkd rates [-h] --qber QBER [--eta ETA] [--n-pi N_PI] [--n-sub N_SUB]
                            [--bias BIAS] [--p-ab P_AB]

        options:
          -h, --help     show this help message and exit
          --qber QBER
          --eta ETA
          --n-pi N_PI
          --n-sub N_SUB
          --bias BIAS
          --p-ab P_AB    effective channel transmission; the sifted rate is the
                         paper's low-load formula, linear in p_AB with no two-herald
                         saturation
        """
    ),
    "truth-table": textwrap.dedent(
        """\
        usage: memqkd truth-table [-h]

        options:
          -h, --help  show this help message and exit
        """
    ),
    "simulate": textwrap.dedent(
        """\
        usage: memqkd simulate [-h] [--config CONFIG] [--preset PRESET] [--seed SEED]
                               [--cycles CYCLES] [--out OUT]

        options:
          -h, --help       show this help message and exit
          --config CONFIG  path to a scenario config file
          --preset PRESET  named preset (fig3-chsh-ideal, fig3-chsh-qber11,
                           fig4-point-N124)
          --seed SEED      override the config seed
          --cycles CYCLES  override the cycle count
          --out OUT        write the CSV here instead of stdout
        """
    ),
    "sweep": textwrap.dedent(
        """\
        usage: memqkd sweep [-h] [--config CONFIG] [--preset PRESET] [--seed SEED]
                            [--cycles CYCLES] [--out OUT] --axis {N,n_m} --values
                            VALUES

        options:
          -h, --help       show this help message and exit
          --config CONFIG  path to a scenario config file
          --preset PRESET  named preset (fig3-chsh-ideal, fig3-chsh-qber11,
                           fig4-point-N124)
          --seed SEED      override the config seed
          --cycles CYCLES  override the cycle count
          --out OUT        write the CSV here instead of stdout
          --axis {N,n_m}
          --values VALUES  comma-separated list, e.g. 60,124,248,504
        """
    ),
    "chsh": textwrap.dedent(
        """\
        usage: memqkd chsh [-h] [--config CONFIG] [--preset PRESET] [--seed SEED]
                           [--cycles CYCLES] [--out OUT]

        options:
          -h, --help       show this help message and exit
          --config CONFIG  path to a scenario config file
          --preset PRESET  named preset (fig3-chsh-ideal, fig3-chsh-qber11,
                           fig4-point-N124)
          --seed SEED      override the config seed
          --cycles CYCLES  override the cycle count
          --out OUT        write the CSV here instead of stdout
        """
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_HELP), ids=lambda command: command or "memqkd")
def test_pinned_scenario_help(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr() == (PINNED_HELP[command], "")


@pytest.mark.parametrize("argv,built", [(["truth-table"], 1), (["--help"], 5)], ids=["truth-table", "help"])
def test_parser_builds_only_the_named_subcommand(argv, built, monkeypatch, capsys):
    # A command's own subparser is all it builds; without one, --help lists all five.
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    assert run(argv) == 0
    assert len(added) == built


def test_parser_scans_the_presets_once(monkeypatch):
    calls = []
    monkeypatch.setattr(memqkd.cli, "list_presets", lambda: calls.append(1) or ["a"])
    memqkd.cli.build_parser()
    assert len(calls) == 1


@pytest.fixture
def qkd_config(tmp_path):
    path = tmp_path / "qkd.cfg"
    path.write_text(FAST_QKD)
    return str(path)


@pytest.fixture
def chsh_config(tmp_path):
    path = tmp_path / "chsh.cfg"
    path.write_text(FAST_CHSH)
    return str(path)


class TestSimulate:
    # n_m = N = 8 is the overdriven limit: n_p = 1 and p_AB = 1.
    @pytest.mark.parametrize("n_m", ["1.2", "8"], ids=["fast", "n_m-equals-N"])
    def test_smoke_and_header(self, n_m, tmp_path, capsys):
        cfg = tmp_path / "qkd.cfg"
        cfg.write_text(FAST_QKD.replace("n_m = 1.2", f"n_m = {n_m}"))
        out = tmp_path / "result.csv"
        code = run(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SIMULATE_COLUMNS)
        assert len(lines) == 2
        assert "QBER" in capsys.readouterr().out

    def test_stdout_is_only_the_csv(self, qkd_config, tmp_path, capsys):
        assert run(["simulate", "--config", qkd_config]) == 0
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 2
        assert rows[0] == SIMULATE_COLUMNS
        assert len(rows[1]) == len(SIMULATE_COLUMNS)
        assert "QBER" in captured.err
        # The same CSV as with --out.
        out = tmp_path / "result.csv"
        assert run(["simulate", "--config", qkd_config, "--out", str(out)]) == 0
        assert out.read_text() == captured.out

    def test_closed_stdout_exits_cleanly(self, qkd_config):
        # The reader of stdout is gone before the CSV is written, as with
        # `| head` on a long output.
        env = dict(os.environ, PYTHONPATH=str(Path(memqkd.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "memqkd", "simulate", "--config", qkd_config],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert b"Traceback" not in err

    def test_import_loads_no_test_only_module(self):
        # scipy, mpmath and hypothesis are test oracles, not dependencies,
        # and every module the CLI imports adds to each run's start-up time.
        env = dict(os.environ, PYTHONPATH=str(Path(memqkd.__file__).parents[1]))
        code = (
            "import sys, memqkd.cli; "
            "print(sorted({name.split('.')[0] for name in sys.modules}"
            " & {'scipy', 'mpmath', 'hypothesis', 'pytest'}))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_identical_seeds_identical_bytes(self, qkd_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", qkd_config, "--out", str(out1)]) == 0
        assert run(["simulate", "--config", qkd_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_bytes(self, qkd_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", qkd_config, "--out", str(out1)]) == 0
        assert run(["simulate", "--config", qkd_config, "--seed", "99",
                    "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_no_sifted_key_writes_nan(self, tmp_path):
        cfg = tmp_path / "starved.cfg"
        cfg.write_text(FAST_QKD.replace("n_m = 1.2", "n_m = 0.0001")
                       .replace("cycles = 30000", "cycles = 10"))
        out = tmp_path / "starved.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["sifted"] == "0"
        for column in ("qber_ml", "qber_lo", "qber_hi", "r_s", "secure_per_use",
                       "R_over_Rmax", "R_over_PLOB"):
            assert values[column] == "nan", column

    def test_zero_photon_load_writes_nan_ratios(self, tmp_path):
        # n_m = 0 gives p_AB = 0: a ratio against a zero bound is nan.
        cfg = tmp_path / "dark.cfg"
        cfg.write_text(FAST_QKD.replace("n_m = 1.2", "n_m = 0"))
        out = tmp_path / "dark.csv"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert values["p_AB"] == "0"
        assert values["R_over_Rmax"] == values["R_over_PLOB"] == "nan"

    def test_zero_cycles_is_config_error(self, qkd_config):
        assert run(["simulate", "--config", qkd_config, "--cycles", "0"]) == 2

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--cycles", str(2**63)]], ids=["seed", "cycles"]
    )
    def test_out_of_range_override_is_config_error(self, qkd_config, flags):
        assert run(["simulate", "--config", qkd_config, *flags]) == 2

    def test_overrides_take_exponent_notation(self, qkd_config, tmp_path):
        # The integer literals a config file accepts.
        out = tmp_path / "exponent.csv"
        argv = ["--cycles", "2e4", "--seed", "1E1", "--out", str(out)]
        assert run(["simulate", "--config", qkd_config, *argv]) == 0
        values = dict(zip(*csv.reader(out.read_text().splitlines())))
        assert (values["cycles"], values["seed"]) == ("20000", "10")

    @pytest.mark.parametrize("value", ["1.5", "1e-3", "abc", "1e5000"])
    @pytest.mark.parametrize("flag", ["--cycles", "--seed"])
    def test_non_integer_override_is_usage_error(self, qkd_config, flag, value, capsys):
        # A configuration error that names the [run] key, as in a file.
        assert run(["simulate", "--config", qkd_config, flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [run] {flag[2:]} = {value!r}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            b"[channel]\nn_m = 500\n",
            b"[noise]\neps_leak = nan\n",
            b"[sequence]\nn_pi = 1e300\n",
            b"[timing]\nreadout_s = nan\n",
            b"[timing]\nlock_s = inf\n",
            b"[sequence]\npi_time_ns = -1\n",
            b"[sequence]\ndelta_t_ns = inf\n",
            b"[cavity]\neta_c = 0.93\n",
            b"\xff\xfe[noise]",
            b"[noise\neps_leak = 0.1\n",
            b"n_m = 0.1\n[channel]\n",
            b"[noise]\neps_leak\n  = 0.1\n",
            b"[noise]\np_mw = 0.1\np_mw = 0.2\n",
            b"[DEFAULT]\np_mw = 0.3\n",
            b"[parties]\nassignment = both\n",
            b"[sequence]\nn_pi = 0\n",
            b"[timing]\nlock_s = 0.2\nblock_s = 0\n",
        ],
        ids=["n_m-above-N", "eps_leak-nan", "n_pi-huge", "readout_s-nan", "lock_s-inf",
             "pi_time-negative", "delta_t-inf", "cavity-section", "undecodable",
             "unclosed-section", "key-before-section", "indented-continuation",
             "duplicate-key", "default-section", "assignment-both", "n_pi-zero",
             "block_s-zero"],
    )
    def test_unusable_config_value_is_config_error(self, tmp_path, text, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        assert run(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")

    def test_internal_value_error_is_not_a_config_error(self, qkd_config, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(memqkd.cli, "simulate_sessions", broken)
        with pytest.raises(ValueError, match="internal fault"):
            run(["simulate", "--config", qkd_config])

    def test_missing_config_file(self):
        assert run(["simulate", "--config", "/nonexistent/nope.cfg"]) == 2

    def test_unknown_preset(self):
        assert run(["simulate", "--preset", "fig0-bogus"]) == 2

    def test_preset_and_config_conflict(self, qkd_config):
        assert run(["simulate", "--preset", "fig4-point-N124",
                    "--config", qkd_config]) == 2


@pytest.mark.parametrize("command", ["simulate", "sweep", "chsh"])
@pytest.mark.parametrize("target", ["missing-parent", "directory"])
def test_unwritable_out_is_config_error(command, target, qkd_config, chsh_config,
                                        tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv" if target == "missing-parent" else tmp_path
    config = chsh_config if command == "chsh" else qkd_config
    axis = ["--axis", "n_m", "--values", "0.5"] if command == "sweep" else []
    assert run([command, "--config", config, *axis, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


# Each scenario flag, and `sweep --axis n_m`, with the file entry it sets.
FLAG_ENTRIES = {
    "--seed": ("run", "seed"),
    "--cycles": ("run", "cycles"),
    "--n-pi": ("sequence", "n_pi"),
    "--n-sub": ("sequence", "n_sub"),
    "--eta": ("noise", "eta_detect"),
    "--bias": ("parties", "basis_bias"),
    "n_m": ("channel", "n_m"),
}
# One slot per cycle, so that n_m = 1.5 lies above N too.
ONE_SLOT = "[sequence]\nn_pi = 1\nn_sub = 1\n"


@pytest.mark.parametrize("literal", ["1.5", "abc", "1e5000", "-1", "nan"])
@pytest.mark.parametrize("flag", list(FLAG_ENTRIES))
def test_flag_and_file_entry_fail_alike(flag, literal, tmp_path, capsys):
    section, key = FLAG_ENTRIES[flag]
    base = ONE_SLOT if flag == "n_m" else ""
    (tmp_path / "base.cfg").write_text(base)
    (tmp_path / "entry.cfg").write_text(f"{base}[{section}]\n{key} = {literal}\n")
    if flag == "n_m":
        argv = ["sweep", "--config", str(tmp_path / "base.cfg"), "--axis", "n_m", "--values", literal]
    elif section == "run":
        argv = ["simulate", flag, literal]
    else:
        argv = ["rates", "--qber", "0.11", flag, literal]
    assert run(argv) == 2
    from_flag = capsys.readouterr()
    assert run(["simulate", "--config", str(tmp_path / "entry.cfg")]) == 2
    assert capsys.readouterr() == from_flag
    assert from_flag.out == "" and from_flag.err.startswith("error: ")
    assert from_flag.err.count("\n") == 1


class TestPresetBenchmark:
    def test_fig4_point_qber_window(self, tmp_path):
        # The calibrated defaults must land in the observed error window.
        out = tmp_path / "fig4.csv"
        code = run(["simulate", "--preset", "fig4-point-N124", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert 0.10 <= float(values["qber_ml"]) <= 0.13

    def test_n_sweep_trends(self, tmp_path):
        # At constant n_m the sifted rate per use falls with N while the
        # advantage over the p/2 line grows.
        out = tmp_path / "trend.csv"
        code = run(["sweep", "--preset", "fig4-point-N124", "--axis", "N",
                    "--values", "60,124,248,504", "--cycles", "200000000",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        sifted = [float(r["sifted_rate"]) for r in rows]
        gain = [float(r["sifted_rate"]) / (float(r["p_AB"]) / 2) for r in rows]
        assert all(b < a for a, b in zip(sifted, sifted[1:]))
        assert all(b > a for a, b in zip(gain, gain[1:]))


    def test_posterior_is_exact_at_1e12_cycles(self):
        # At 1e12 cycles the posterior sigma (7.6e-5) is below any fixed
        # grid step: the row must carry K/N itself and the interval of the
        # truncated Beta, here by scipy's betainc/betaincinv.
        cfg = load_preset("fig4-point-N124").replace(cycles=10**12)
        (point,) = memqkd.cli._run([cfg], cfg.overheads)
        row = dict(zip(SIMULATE_COLUMNS, next(memqkd.cli._rows(SIMULATE_COLUMNS, [point]))))
        report = point.session
        assert report.sifted > 10**7
        assert row["qber_ml"] == report.errors / report.sifted
        low, high = TruncatedBetaOracle(report.errors, report.sifted).interval()
        assert row["qber_lo"] == pytest.approx(low, abs=1e-10)
        assert row["qber_hi"] == pytest.approx(high, abs=1e-10)

    def test_summary_prints_the_csv_qber_digits(self, tmp_path, capsys):
        # The ideal preset has no errors, so its interval is [0, 3.3e-5]:
        # the summary must show the CSV's numbers, not four decimals.
        out = tmp_path / "ideal.csv"
        assert run(["simulate", "--preset", "fig3-chsh-ideal", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        row = next(csv.DictReader(out.read_text().splitlines()))
        assert float(row["qber_hi"]) > 0
        assert f"ML={row['qber_ml']} " in summary
        assert f"[{row['qber_lo']}, {row['qber_hi']}]" in summary

    def test_error_rate_above_one_half(self, tmp_path):
        # f_readout = 0 flips every readout, so K/N is near 0.88 and the
        # posterior's mass below 1/2 underflows a double.
        base = load_preset("fig4-point-N124")
        cfg = base.replace(noise=dataclasses.replace(base.noise, f_readout=0.0),
                           cycles=10**11)
        path, out = tmp_path / "flipped.cfg", tmp_path / "flipped.csv"
        path.write_text(serialize_config(cfg))
        assert run(["simulate", "--config", str(path), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert int(values["errors"]) > 0.8 * int(values["sifted"])
        assert values["qber_ml"] == values["qber_hi"] == "0.5"
        assert float(values["qber_lo"]) <= 0.5
        assert values["r_s"] == "0"


class TestSweep:
    def test_n_sweep_rows(self, qkd_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", qkd_config, "--axis", "N",
                    "--values", "8,16", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "8"
        assert lines[2].split(",")[0] == "16"

    def test_sweep_header_is_frozen(self, qkd_config, tmp_path):
        out = tmp_path / "sweep.csv"
        run(["sweep", "--config", qkd_config, "--axis", "N",
             "--values", "8", "--out", str(out)])
        assert out.read_text().splitlines()[0] == (
            "N,n_m,n_p,p_AB,sifted_rate,qber_ml,qber_lo,qber_hi,r_s,R,"
            "R_over_Rmax,R_over_PLOB,seed"
        )

    def test_nm_sweep(self, qkd_config, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--config", qkd_config, "--axis", "n_m",
                    "--values", "0.6,1.2", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3

    def test_zero_load_runs_as_in_a_file(self, qkd_config, tmp_path, capsys):
        # n_m = 0 is a valid load in a sweep, as in a scenario file.
        assert run(["sweep", "--config", qkd_config, "--axis", "n_m", "--values", "0"]) == 0
        swept = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        dark = tmp_path / "dark.cfg"
        dark.write_text(FAST_QKD.replace("n_m = 1.2", "n_m = 0"))
        assert run(["simulate", "--config", str(dark)]) == 0
        simulated = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        shared = [column for column in SWEEP_COLUMNS if column in SIMULATE_COLUMNS]
        assert len(swept) == len(simulated) == 1 and len(shared) == 11
        assert {c: swept[0][c] for c in shared} == {c: simulated[0][c] for c in shared}
        assert swept[0]["p_AB"] == "0" and swept[0]["seed"] == "11"

    def test_empty_values_error(self, qkd_config):
        assert run(["sweep", "--config", qkd_config, "--axis", "N",
                    "--values", ""]) == 2

    @pytest.mark.parametrize("values", ["0.6,,1.2", "0.6,1.2,", ",0.6", "0.6, ,1.2"])
    def test_empty_field_is_config_error(self, qkd_config, values, tmp_path, capsys):
        # Dropping the field would give every later point another seed.
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--config", qkd_config, "--axis", "n_m",
                    "--values", values, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "empty field" in err
        assert not out.exists()

    def test_indivisible_n_error(self, qkd_config):
        assert run(["sweep", "--config", qkd_config, "--axis", "N",
                    "--values", "9"]) == 2

    @pytest.mark.parametrize("axis,values", [("N", "nan"), ("N", "inf"), ("n_m", "500")])
    def test_bad_point_is_config_error(self, qkd_config, axis, values):
        assert run(["sweep", "--config", qkd_config, "--axis", axis,
                    "--values", values]) == 2

    @pytest.mark.parametrize("axis,values,message", [
        ("N", "124,2000002", "N = 2000002 qubit slots exceeds the limit of 1000000"),
        ("N", "124,125", "N=125 is not a multiple of n_sub=2"),
        ("N", "124,1.5", "[sequence] N = '1.5': '1.5' is not an integer"),
        ("N", "124,0", "N must be positive, got 0"),
        ("n_m", "0.02,-1",
         "n_m must lie in [0, N = 124] (at most one photon per slot on average), got -1.0"),
        ("n_m", "0.02,abc", "[channel] n_m = 'abc': could not convert string to float: 'abc'"),
    ])
    def test_bad_later_point_runs_no_session(self, axis, values, message, monkeypatch,
                                             tmp_path, capsys):
        # At 1e12 cycles each earlier point would run for real time first.
        calls, sessions = [], memqkd.cli.simulate_sessions
        monkeypatch.setattr(memqkd.cli, "simulate_sessions",
                            lambda *a, **k: calls.append(a) or sessions(*a, **k))
        out = tmp_path / "bad.csv"
        assert run(["sweep", "--preset", "fig4-point-N124", "--axis", axis, "--values", values,
                    "--cycles", "1e12", "--out", str(out)]) == 2
        assert calls == []
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


TRUTH_TABLE = """\
 alice    bob  frame  parity  bell state
    +x     +x   even      +1        Phi+
    +x     +x    odd      +1        Psi+
    +x     -x   even      -1        Phi-
    +x     -x    odd      -1        Psi-
    -x     +x   even      -1        Phi-
    -x     +x    odd      -1        Psi-
    -x     -x   even      +1        Phi+
    -x     -x    odd      +1        Psi+
    +y     +y   even      -1        Phi-
    +y     +y    odd      +1        Psi+
    +y     -y   even      +1        Phi+
    +y     -y    odd      -1        Psi-
    -y     +y   even      +1        Phi+
    -y     +y    odd      -1        Psi-
    -y     -y   even      -1        Phi-
    -y     -y    odd      +1        Psi+
"""


# `_write_csv` joins each row's fields with bare commas, so every field must
# read back from `csv.reader` as written: a column whose text needs quoting
# fails here rather than writing a broken row.
@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "fig4-point-N124", "--cycles", "1000000"],
    ["simulate", "--preset", "fig3-chsh-qber11", "--cycles", "100000"],
    ["sweep", "--preset", "fig4-point-N124", "--axis", "N", "--values", "60,504",
     "--cycles", "1000000"],
    ["sweep", "--preset", "fig4-point-N124", "--axis", "n_m", "--values", "0,0.02,124",
     "--cycles", "1000000"],
    ["chsh", "--preset", "fig3-chsh-ideal", "--cycles", "100000"],
    ["chsh", "--preset", "fig3-chsh-qber11", "--cycles", "100000"],
], ids=["simulate-fig4", "simulate-chsh", "sweep-N", "sweep-n_m", "chsh-ideal", "chsh-qber11"])
def test_each_csv_is_unquoted(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run([*argv, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) >= 2
    width = len(lines[0].split(","))
    for line in lines:
        fields = next(csv.reader([line]))
        assert line == ",".join(fields) and len(fields) == width, line


class TestTruthTable:
    def test_prints_sixteen_classifications(self, capsys):
        assert run(["truth-table"]) == 0
        out = capsys.readouterr().out
        assert out == TRUTH_TABLE
        body = out.splitlines()[1:]
        assert len(body) == 16
        for label in ("Phi+", "Phi-", "Psi+", "Psi-"):
            assert sum(label in line for line in body) == 4


class TestChsh:
    def test_reports_s_values(self, chsh_config, tmp_path, capsys):
        out = tmp_path / "chsh.csv"
        code = run(["chsh", "--config", chsh_config, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "S+" in printed and "S-" in printed
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CHSH_COLUMNS)
        assert len(lines) == 9  # four terms per parity

    def test_qkd_config_rejected(self, qkd_config):
        assert run(["chsh", "--config", qkd_config]) == 2

    def test_no_coincidences_is_statistical_failure(self, tmp_path):
        cfg = tmp_path / "starved.cfg"
        cfg.write_text(FAST_CHSH.replace("n_m = 1.2", "n_m = 0.0001")
                       .replace("cycles = 60000", "cycles = 10"))
        assert run(["chsh", "--config", str(cfg)]) == 3


class TestRates:
    @staticmethod
    def _line_values(out, label):
        line = next(l for l in out.splitlines() if label in l)
        return [float(tok.split("/")[0]) for tok in line.split("=")[1].split()]

    # The exact report of four flag sets: a change to any printed digit shows here.
    PINNED_RATES = {
        (): """\
            rate report  (E=0.11, eta=0.423, n_pi=62, n_sub=2, bias=0.50:0.50, p_AB=2.601e-08)
              secret fraction r_s        = 0.1955
              sifted rate                = 2.7478e-07/use  1.3739e-07/occupancy
              secure rate R              = 5.3712e-08/use  2.6856e-08/occupancy
              R / Rmax                   = 4.129/use  2.065/occupancy
              R / (1.44 p)               = 1.434/use  0.717/occupancy
            """,
        ("--bias", "0.99"): """\
            rate report  (E=0.11, eta=0.423, n_pi=62, n_sub=2, bias=0.99:0.01, p_AB=2.601e-08)
              secret fraction r_s        = 0.1955
              sifted rate                = 5.3868e-07/use  2.6934e-07/occupancy
              secure rate R              = 1.0530e-07/use  5.2648e-08/occupancy
              R / Rmax                   = 4.129/use  2.065/occupancy
              R / (1.44 p)               = 2.811/use  1.405/occupancy
            """,
        ("--n-pi", "125", "--n-sub", "4", "--eta", "0.3"): """\
            rate report  (E=0.11, eta=0.3, n_pi=125, n_sub=4, bias=0.50:0.50, p_AB=2.601e-08)
              secret fraction r_s        = 0.1955
              sifted rate                = 5.7135e-07/use  2.8568e-07/occupancy
              secure rate R              = 1.1168e-07/use  5.5842e-08/occupancy
              R / Rmax                   = 8.586/use  4.293/occupancy
              R / (1.44 p)               = 2.981/use  1.491/occupancy
            """,
        ("--p-ab", "1"): """\
            rate report  (E=0.11, eta=0.423, n_pi=62, n_sub=2, bias=0.50:0.50, p_AB=1.000e+00)
              secret fraction r_s        = 0.1955
              sifted rate                = 1.0563e+01/use  5.2813e+00/occupancy
              secure rate R              = 2.0647e+00/use  1.0323e+00/occupancy
              R / Rmax                   = 4.129/use  2.065/occupancy
              R / (1.44 p)               = 1.434/use  0.717/occupancy
            """,
    }

    def test_pinned_rates_text(self, capsys):
        for flags, text in self.PINNED_RATES.items():
            assert run(["rates", "--qber", "0.11", *flags]) == 0
            assert capsys.readouterr() == (textwrap.dedent(text), ""), flags

    def test_benchmark_point(self, capsys):
        code = run(["rates", "--qber", "0.110", "--eta", "0.423",
                    "--n-pi", "62", "--n-sub", "2", "--bias", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        rmax_use, rmax_occ = self._line_values(out, "R / Rmax")
        plob_use, plob_occ = self._line_values(out, "R / (1.44 p)")
        assert rmax_use == pytest.approx(4.13, abs=0.01)
        assert rmax_occ == pytest.approx(2.06, abs=0.01)
        assert plob_use == pytest.approx(1.43, abs=0.01)
        assert plob_occ == pytest.approx(0.72, abs=0.01)

    def test_biased_point(self, capsys):
        code = run(["rates", "--qber", "0.110", "--eta", "0.423",
                    "--n-pi", "62", "--n-sub", "2", "--bias", "0.99"])
        assert code == 0
        out = capsys.readouterr().out
        plob_use, plob_occ = self._line_values(out, "R / (1.44 p)")
        assert plob_use == pytest.approx(2.80, abs=0.02)
        assert plob_occ == pytest.approx(1.40, abs=0.01)

    def test_zero_transmission_prints_nan_ratios(self, capsys):
        assert run(["rates", "--qber", "0.1", "--p-ab", "0"]) == 0
        out = capsys.readouterr().out
        for label in ("R / Rmax", "R / (1.44 p)"):
            values = self._line_values(out, label)
            assert len(values) == 2 and all(math.isnan(v) for v in values), label

    def test_integer_flags_take_exponent_notation(self, capsys):
        # The integer literals a config file accepts, as the scenario flags take them.
        assert run(["rates", "--qber", "0.11", "--n-pi", "62", "--n-sub", "2"]) == 0
        plain = capsys.readouterr()
        assert run(["rates", "--qber", "0.11", "--n-pi", "6.2e1", "--n-sub", "2e0"]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("flag", ["--n-pi", "--n-sub"])
    def test_non_integer_flag_is_usage_error(self, flag, capsys):
        # A configuration error that names the [sequence] key, as in a file.
        assert run(["rates", "--qber", "0.11", flag, "62.5"]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: [sequence] {key} = '62.5': '62.5' is not an integer\n")

    def test_bad_qber(self):
        assert run(["rates", "--qber", "0.7"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [["--bias", "1.5"], ["--n-pi", "2"], ["--eta", "2"],
         ["--n-pi", "9" * 400], ["--n-sub", "9" * 400], ["--n-sub", "3"],
         ["--n-pi", "600000"], ["--p-ab", "-1"]],
    )
    def test_bad_layout_is_config_error(self, flags, capsys):
        assert run(["rates", "--qber", "0.1", *flags]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
