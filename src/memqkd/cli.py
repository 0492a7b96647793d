"""Command-line entry point.

Subcommands:
  simulate     run one session from a config or preset, write CSV + summary
               (the summary goes to stderr when the CSV goes to stdout)
  sweep        sweep N or n_m and emit one plot-ready CSV row per point
  truth-table  print all 16 input-pair / frame-parity classifications
  chsh         run a Bell-test session and print the four correlations and S
  rates        analytic rate report for a given error rate and pulse layout

Exit codes: 0 success, 2 configuration error, 3 statistical or runtime
failure (for example an empty correlation cell in the Bell test).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import math
import os
import sys
from pathlib import Path
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .bsm import ChannelConfig
from .config import (
    ConfigError,
    ScenarioConfig,
    _parse_int,
    default_config,
    list_presets,
    load_config,
    load_preset,
)
from .rates import KeyRateReport, analytic_report, build_reports
from .session import (
    EmptyCellError,
    SessionReport,
    TimingOverheads,
    chsh_statistic,
    simulate_session,
    simulate_sessions,
    truth_table_rows,
)

_FLOAT_FMT = "%.9g"

SIMULATE_COLUMNS = [
    "N", "n_m", "n_p", "p_AB", "cycles", "heralds", "coincidences",
    "discarded", "same_party", "sifted", "errors", "qber_ml", "qber_lo",
    "qber_hi", "r_s", "sifted_per_use", "sifted_per_occupancy",
    "secure_per_use", "R_over_Rmax", "R_over_PLOB", "clock_rate_hz", "seed",
]

SWEEP_COLUMNS = [
    "N", "n_m", "n_p", "p_AB", "sifted_rate", "qber_ml", "qber_lo",
    "qber_hi", "r_s", "R", "R_over_Rmax", "R_over_PLOB", "seed",
]

# The attribute of a `_Point` that each simulate and sweep column holds.
_COLUMN_SOURCE = {
    "N": "scenario.sequence.n_qubits",
    "n_m": "scenario.n_m",
    "n_p": "channel.n_p",
    "p_AB": "channel.p_ab",
    "cycles": "session.cycles",
    "heralds": "session.heralds",
    "coincidences": "session.coincidences",
    "discarded": "session.discarded_multi",
    "same_party": "session.same_party",
    "sifted": "session.sifted",
    "errors": "session.errors",
    "qber_ml": "rates.qber_ml",
    "qber_lo": "rates.qber_low",
    "qber_hi": "rates.qber_high",
    "r_s": "rates.r_s",
    "sifted_per_use": "rates.sifted_per_use",
    "sifted_rate": "rates.sifted_per_use",
    "sifted_per_occupancy": "rates.sifted_per_occupancy",
    "secure_per_use": "rates.secure_per_use",
    "R": "rates.secure_per_use",
    "R_over_Rmax": "rates.ratio_rmax_per_use",
    "R_over_PLOB": "rates.ratio_plob_per_use",
    "clock_rate_hz": "session.clock_rate_hz",
    "seed": "scenario.seed",
}

CHSH_COLUMNS = ["parity", "term", "value", "coincidences", "S"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path: Optional[str], columns: list[str], rows: Iterable[Sequence]) -> None:
    """Write the header and each row's values, in the order of `columns`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(_fmt, row) for row in rows)
    text = buffer.getvalue()
    if path is not None:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_scenario(args) -> ScenarioConfig:
    if args.preset is not None and args.config is not None:
        raise ConfigError("give either --preset or --config, not both")
    # An empty path would name the current directory.
    for flag in ("config", "out"):
        if getattr(args, flag) == "":
            raise ConfigError(f"--{flag} is empty; give a file path")
    if args.preset is not None:
        cfg = load_preset(args.preset)
    elif args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.cycles is not None:
        cfg = cfg.replace(cycles=args.cycles)
    return cfg


class _Point(NamedTuple):
    """One scenario's run: what every simulate and sweep column is read from."""

    scenario: ScenarioConfig
    channel: ChannelConfig
    session: SessionReport
    rates: KeyRateReport


def _run(points: Sequence[ScenarioConfig], overheads: TimingOverheads) -> list[_Point]:
    """Each scenario's channel, session report and rate report: the sessions
    run in one call, and one call builds the reports, so the posteriors are
    solved together."""
    chans = [point.channel() for point in points]
    runs = simulate_sessions(
        [(p.sequence, chan, p.parties, p.noise, p.cycles, p.seed) for p, chan in zip(points, chans)],
        overheads=overheads,
    )
    sessions = [report for _, report in runs]
    return list(map(_Point, points, chans, sessions, build_reports(zip(sessions, points))))


def _rows(columns: list[str], points: Iterable[_Point]) -> Iterator[tuple]:
    """The values of `columns` (`_COLUMN_SOURCE`) of each point."""
    return map(attrgetter(*(_COLUMN_SOURCE[c] for c in columns)), points)


def _print_summary(point: _Point) -> None:
    cfg, chan, report, rates = point
    print(f"session: N={cfg.sequence.n_qubits} slots/cycle, n_m={cfg.n_m:g}, "
          f"p_AB={chan.p_ab:.3e}, cycles={report.cycles:,}")
    print(f"  heralding efficiency: eta_detect={cfg.noise.eta_detect:g}")
    print(f"  heralds={report.heralds:,}  coincidences={report.coincidences:,}  "
          f"discarded={report.discarded_multi:,}  same-party={report.same_party:,}")
    print(f"  sifted: XX {report.sifted_xx} ({report.errors_xx} err)  "
          f"YY {report.sifted_yy} ({report.errors_yy} err)")
    if report.sifted:
        print(f"  QBER ML={_fmt(rates.qber_ml)}  "
              f"68.2% interval [{_fmt(rates.qber_low)}, {_fmt(rates.qber_high)}]  "
              f"r_s={rates.r_s:.4f}")
    print(f"  sifted rate: {rates.sifted_per_use:.4e}/use  "
          f"{rates.sifted_per_occupancy:.4e}/occupancy")
    print(f"  secure rate: {rates.secure_per_use:.4e}/use  "
          f"R/Rmax={rates.ratio_rmax_per_use:.3f}  R/(1.44p)={rates.ratio_plob_per_use:.3f}")
    if rates.confidence_vs_plob is not None:
        print(f"  confidence above bounds: Rmax {rates.confidence_vs_rmax:.4f}  "
              f"PLOB {rates.confidence_vs_plob:.4f}")
    print(f"  modeled wall clock: {report.wall_clock_s:.1f} s  "
          f"clock rate {report.clock_rate_hz/1e6:.3f} MHz")


def _cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    (point,) = _run([cfg], cfg.overheads)
    _write_csv(args.out, SIMULATE_COLUMNS, _rows(SIMULATE_COLUMNS, [point]))
    # Without --out the CSV is stdout, so the summary goes to stderr and
    # stdout stays one clean data stream.
    with contextlib.redirect_stdout(sys.stdout if args.out is not None else sys.stderr):
        _print_summary(point)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_scenario(args)
    # Point i runs with seed + i, so a dropped field would shift every later seed.
    fields = args.values.split(",")
    if not all(field.strip() for field in fields):
        raise ConfigError(f"sweep values {args.values!r} have an empty field")
    try:
        values = [float(v) for v in fields]
    except ValueError as exc:
        raise ConfigError(f"bad sweep values {args.values!r}: {exc}") from exc

    # Every point is built and checked before the first one runs.
    points = []
    for index, value in enumerate(values):
        if args.axis == "N":
            if not value.is_integer() or value <= 0:
                raise ConfigError(f"N values must be positive integers, got {value}")
            n = int(value)
            seq = cfg.sequence
            if n % seq.n_sub != 0:
                raise ConfigError(f"N={n} is not a multiple of n_sub={seq.n_sub}")
            swept = {"sequence": dataclasses.replace(seq, n_pi=n // seq.n_sub)}
        else:
            if value <= 0:
                raise ConfigError(f"n_m values must be positive, got {value}")
            swept = {"n_m": value}
        points.append(cfg.replace(seed=cfg.seed + index, **swept))
    _write_csv(args.out, SWEEP_COLUMNS, _rows(SWEEP_COLUMNS, _run(points, cfg.overheads)))
    return 0


def _cmd_truth_table(args) -> int:
    rows = truth_table_rows()
    print(f"{'alice':>6} {'bob':>6} {'frame':>6} {'parity':>7} {'bell state':>11}")
    for row in rows:
        print(f"{row['alice']:>6} {row['bob']:>6} {row['frame']:>6} "
              f"{row['parity']:+7d} {row['bell_state']:>11}")
    return 0


def _cmd_chsh(args) -> int:
    cfg = _load_scenario(args)
    if cfg.parties.mode != "chsh":
        raise ConfigError("chsh requires a config with parties.mode = chsh")
    tally, report = simulate_session(
        cfg.sequence, cfg.channel(), cfg.parties, cfg.noise, cfg.cycles, cfg.seed,
        overheads=cfg.overheads,
    )
    rows = []
    for parity in (1, -1):
        terms, s_value = chsh_statistic(tally, parity)
        n = int(tally.counts[..., 0 if parity == 1 else 1].sum())
        label = "S+" if parity == 1 else "S-"
        print(f"parity {parity:+d}: " +
              "  ".join(f"<AB>_{k}={v:+.4f}" for k, v in terms.items()) +
              f"  ->  {label} = {s_value:.4f}")
        for key, value in terms.items():
            rows.append((parity, key, value, n, s_value))
    print(f"coincidences: {report.coincidences:,} over {report.cycles:,} cycles")
    if args.out is not None:
        _write_csv(args.out, CHSH_COLUMNS, rows)
    return 0


def _cmd_rates(args) -> int:
    if not 0 <= args.qber <= 0.5:
        raise ConfigError(f"qber must lie in [0, 1/2], got {args.qber}")
    if not 0 <= args.p_ab <= 1:
        raise ConfigError(f"p_ab must lie in [0, 1], got {args.p_ab}")
    # The default scenario with the flags' values, checked as a scenario file
    # is. The layout goes in first, so an N past the slot limit fails there
    # rather than overflowing n_m = N sqrt(p_AB). Every check that can fail
    # here is on a command-line value.
    base = default_config()
    try:
        cfg = base.replace(
            noise=dataclasses.replace(base.noise, eta_detect=args.eta),
            sequence=dataclasses.replace(base.sequence, n_pi=args.n_pi, n_sub=args.n_sub),
            parties=dataclasses.replace(base.parties, basis_bias=args.bias),
        )
        cfg = cfg.replace(n_m=math.sqrt(args.p_ab) * cfg.sequence.n_qubits)
        rates = analytic_report(args.qber, cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bias_label = f"{args.bias:.2f}:{1 - args.bias:.2f}"
    print(f"rate report  (E={args.qber:g}, eta={args.eta:g}, "
          f"n_pi={args.n_pi}, n_sub={args.n_sub}, bias={bias_label}, "
          f"p_AB={args.p_ab:.3e})")
    print(f"  secret fraction r_s        = {rates.r_s:.4f}")
    print(f"  sifted rate                = {rates.sifted_per_use:.4e}/use  "
          f"{rates.sifted_per_occupancy:.4e}/occupancy")
    print(f"  secure rate R              = {rates.secure_per_use:.4e}/use  "
          f"{rates.secure_per_occupancy:.4e}/occupancy")
    print(f"  R / Rmax                   = {rates.ratio_rmax_per_use:.3f}/use  "
          f"{rates.ratio_rmax_per_occupancy:.3f}/occupancy")
    print(f"  R / (1.44 p)               = {rates.ratio_plob_per_use:.3f}/use  "
          f"{rates.ratio_plob_per_occupancy:.3f}/occupancy")
    return 0


def _add_scenario_flags(p: argparse.ArgumentParser, presets: str) -> None:
    p.add_argument("--config", help="path to a scenario config file")
    p.add_argument("--preset", help=f"named preset ({presets})")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--cycles", type=int, help="override the cycle count")
    p.add_argument("--out", help="write the CSV here instead of stdout")


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--axis", choices=("N", "n_m"), required=True)
    p.add_argument("--values", required=True,
                   help="comma-separated list, e.g. 60,124,248,504")


def _add_rates_flags(p: argparse.ArgumentParser) -> None:
    scenario = default_config()
    p.add_argument("--qber", type=float, required=True)
    p.add_argument("--eta", type=float, default=scenario.noise.eta_detect)
    p.add_argument("--n-pi", dest="n_pi", type=int, default=scenario.sequence.n_pi)
    p.add_argument("--n-sub", dest="n_sub", type=int, default=scenario.sequence.n_sub)
    p.add_argument("--bias", type=float, default=scenario.parties.basis_bias)
    p.add_argument("--p-ab", dest="p_ab", type=float,
                   default=scenario.channel().p_ab,
                   help="effective channel transmission; the sifted rate is "
                        "the paper's low-load formula, linear in p_AB with no "
                        "two-herald saturation")


# Each subcommand: its handler, its help line, whether it takes the scenario
# flags, and what adds its own flags.
_COMMANDS = {
    "simulate": (_cmd_simulate, "run one session", True, None),
    "sweep": (_cmd_sweep, "sweep N or n_m", True, _add_sweep_flags),
    "truth-table": (_cmd_truth_table, "print the BSM truth table", False, None),
    "chsh": (_cmd_chsh, "run a Bell-test session", True, None),
    "rates": (_cmd_rates, "analytic rate report", False, _add_rates_flags),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser with the subparser of `command` alone, or with all five
    when `command` names none of them."""
    parser = argparse.ArgumentParser(
        prog="memqkd",
        description="Memory-assisted MDI-QKD simulator and rate calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    if len(names) == 1:
        # Usage lines name all five, as where all five are built. Only here:
        # the errors that name the action would print it for "argument command".
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    presets = None
    for name in names:
        func, help_text, scenario, add_flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        # Integer flags take the literals a config file accepts, 2e6 among them.
        p.register("type", int, _parse_int)
        if scenario:
            if presets is None:
                presets = ", ".join(list_presets())
            _add_scenario_flags(p, presets)
        if add_flags is not None:
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EmptyCellError as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`) and took what it wanted.
        # Point stdout at devnull so the interpreter's final flush does not
        # raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
