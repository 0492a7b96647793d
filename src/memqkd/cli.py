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
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

from .config import (
    ConfigError,
    ScenarioConfig,
    default_config,
    list_presets,
    load_config,
    load_preset,
)
from .rates import BoundsConfig, KeyRateReport, build_report
from .session import EmptyCellError, chsh_statistic, simulate_session, truth_table_rows

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
# The simulate column each sweep column copies, where the names differ.
_SWEEP_SOURCE = {"sifted_rate": "sifted_per_use", "R": "secure_per_use"}

CHSH_COLUMNS = ["parity", "term", "value", "coincidences", "S"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path: Optional[str], columns: list[str], rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    text = buffer.getvalue()
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_scenario(args) -> ScenarioConfig:
    if args.preset and args.config:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset:
        cfg = load_preset(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        cfg = default_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.cycles is not None:
        cfg = cfg.replace(cycles=args.cycles)
    return cfg


def _run_session(cfg: ScenarioConfig):
    return simulate_session(
        cfg.sequence,
        cfg.channel(),
        cfg.parties,
        cfg.noise,
        cfg.cycles,
        cfg.seed,
        overheads=cfg.overheads,
    )


def _session_row(cfg: ScenarioConfig, report) -> tuple[dict, KeyRateReport]:
    chan = cfg.channel()
    bounds = BoundsConfig(
        eta=cfg.noise.eta_detect,
        n_pi=cfg.sequence.n_pi,
        n_sub=cfg.sequence.n_sub,
        p_ab=chan.p_ab,
        basis_bias=cfg.parties.basis_bias,
    )
    rates = build_report(report, bounds)
    row = {
        "N": cfg.sequence.n_qubits,
        "n_m": cfg.n_m,
        "n_p": chan.n_p,
        "p_AB": chan.p_ab,
        "cycles": report.cycles,
        "heralds": report.heralds,
        "coincidences": report.coincidences,
        "discarded": report.discarded_multi,
        "same_party": report.same_party,
        "sifted": report.sifted,
        "errors": report.errors,
        "qber_ml": rates.qber_ml,
        "qber_lo": rates.qber_low,
        "qber_hi": rates.qber_high,
        "r_s": rates.r_s,
        "sifted_per_use": rates.sifted_per_use,
        "sifted_per_occupancy": rates.sifted_per_occupancy,
        "secure_per_use": rates.secure_per_use,
        "R_over_Rmax": rates.ratio_rmax_per_use,
        "R_over_PLOB": rates.ratio_plob_per_use,
        "clock_rate_hz": report.clock_rate_hz,
        "seed": cfg.seed,
    }
    return row, rates


def _print_summary(cfg: ScenarioConfig, report, row, rates: KeyRateReport) -> None:
    print(f"session: N={row['N']} slots/cycle, n_m={row['n_m']:g}, "
          f"p_AB={row['p_AB']:.3e}, cycles={report.cycles:,}")
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
    print(f"  secure rate: {row['secure_per_use']:.4e}/use  "
          f"R/Rmax={row['R_over_Rmax']:.3f}  R/(1.44p)={row['R_over_PLOB']:.3f}")
    if rates.confidence_vs_plob is not None:
        print(f"  confidence above bounds: Rmax {rates.confidence_vs_rmax:.4f}  "
              f"PLOB {rates.confidence_vs_plob:.4f}")
    print(f"  modeled wall clock: {report.wall_clock_s:.1f} s  "
          f"clock rate {report.clock_rate_hz/1e6:.3f} MHz")


def _cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    _, report = _run_session(cfg)
    row, rates = _session_row(cfg, report)
    _write_csv(args.out, SIMULATE_COLUMNS, [row])
    # Without --out the CSV is stdout, so the summary goes to stderr and
    # stdout stays one clean data stream.
    with contextlib.redirect_stdout(sys.stdout if args.out else sys.stderr):
        _print_summary(cfg, report, row, rates)
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

    rows = []
    for index, value in enumerate(values):
        point = cfg.replace(seed=cfg.seed + index)
        if args.axis == "N":
            if not value.is_integer() or value <= 0:
                raise ConfigError(f"N values must be positive integers, got {value}")
            n = int(value)
            seq = cfg.sequence
            if n % seq.n_sub != 0:
                raise ConfigError(f"N={n} is not a multiple of n_sub={seq.n_sub}")
            point = point.replace(sequence=dataclasses.replace(seq, n_pi=n // seq.n_sub))
        else:
            if value <= 0:
                raise ConfigError(f"n_m values must be positive, got {value}")
            point = point.replace(n_m=value)
        _, report = _run_session(point)
        row, _ = _session_row(point, report)
        rows.append({c: row[_SWEEP_SOURCE.get(c, c)] for c in SWEEP_COLUMNS})
    _write_csv(args.out, SWEEP_COLUMNS, rows)
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
    tally, report = _run_session(cfg)
    rows = []
    for parity in (1, -1):
        terms, s_value = chsh_statistic(tally, parity)
        n = int(tally.counts[..., 0 if parity == 1 else 1].sum())
        label = "S+" if parity == 1 else "S-"
        print(f"parity {parity:+d}: " +
              "  ".join(f"<AB>_{k}={v:+.4f}" for k, v in terms.items()) +
              f"  ->  {label} = {s_value:.4f}")
        for key, value in terms.items():
            rows.append({"parity": parity, "term": key, "value": value,
                         "coincidences": n, "S": s_value})
    print(f"coincidences: {report.coincidences:,} over {report.cycles:,} cycles")
    if args.out:
        _write_csv(args.out, CHSH_COLUMNS, rows)
    return 0


def _cmd_rates(args) -> int:
    if not 0 <= args.qber <= 0.5:
        raise ConfigError(f"qber must lie in [0, 1/2], got {args.qber}")
    # Every check that can fail here is on a command-line value.
    try:
        bounds = BoundsConfig(
            eta=args.eta,
            n_pi=args.n_pi,
            n_sub=args.n_sub,
            p_ab=args.p_ab,
            basis_bias=args.bias,
        )
        rates = build_report(args.qber, bounds)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memqkd",
        description="Memory-assisted MDI-QKD simulator and rate calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--config", help="path to a scenario config file")
        p.add_argument("--preset", help=f"named preset ({', '.join(list_presets())})")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--cycles", type=int, help="override the cycle count")
        p.add_argument("--out", help="write the CSV here instead of stdout")

    p_sim = sub.add_parser("simulate", help="run one session")
    add_scenario_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="sweep N or n_m")
    add_scenario_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("N", "n_m"), required=True)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated list, e.g. 60,124,248,504")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tt = sub.add_parser("truth-table", help="print the BSM truth table")
    p_tt.set_defaults(func=_cmd_truth_table)

    p_chsh = sub.add_parser("chsh", help="run a Bell-test session")
    add_scenario_flags(p_chsh)
    p_chsh.set_defaults(func=_cmd_chsh)

    scenario = default_config()
    p_rates = sub.add_parser("rates", help="analytic rate report")
    p_rates.add_argument("--qber", type=float, required=True)
    p_rates.add_argument("--eta", type=float, default=scenario.noise.eta_detect)
    p_rates.add_argument("--n-pi", dest="n_pi", type=int, default=scenario.sequence.n_pi)
    p_rates.add_argument("--n-sub", dest="n_sub", type=int, default=scenario.sequence.n_sub)
    p_rates.add_argument("--bias", type=float, default=scenario.parties.basis_bias)
    p_rates.add_argument("--p-ab", dest="p_ab", type=float,
                         default=scenario.channel().p_ab,
                         help="effective channel transmission; the sifted rate is "
                              "the paper's low-load formula, linear in p_AB with no "
                              "two-herald saturation")
    p_rates.set_defaults(func=_cmd_rates)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
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
