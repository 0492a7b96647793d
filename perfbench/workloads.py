"""The benchmark's workloads: inputs made from a seed, the call, the checks.

Each workload is one closed-loop client: a single process calls the
program once, waits for it, and the harness checks what it wrote. The
workload seed only picks the program's `--seed` (and, for the reference
engine, the library seed); every other input is fixed below, so one
workload seed always gives the same inputs. README.md says why each
workload exists and which layer metric should move which end-to-end
metric on it; BENCHMARK.json lists them.

`make_spec` is stdlib-only, because the parent process that spawns the
runs does not import the program. `call` and `check` run inside the
fresh interpreter of one run.
"""

from __future__ import annotations

import csv
import math
import random
import time
from pathlib import Path

POINT_PRESET = "fig4-point-N124"
CHSH_PRESET = "fig3-chsh-qber11"
# Readout coherence 1 - 2 * 0.11 scales the ideal Tsirelson value.
CHSH_EXPECTED_S = 2.0 * math.sqrt(2.0) * 0.78
# Share of CHSH-mode coincidences that land in one pooled CHSH term:
# two ordered basis pairs out of sixteen.
CHSH_TERM_SHARE = 2.0 / 16.0
Z_LIMIT = 5.0

# Full and tiny (smoke-test) sizes.
_SIZES = {
    "load-sweep": {"full": 1_000_000_000, "tiny": 10_000_000},
    "dense-n-sweep": {"full": 10_000_000, "tiny": 1_000_000},
    "chsh": {"full": 4_500_000, "tiny": 100_000},
    "reference-engine": {"full": 1_000, "tiny": 200},
}


# The host-speed loop (hostspeed.py) that scales each workload's wall
# time: the one that does the kind of work that holds its time. The
# sweeps at 1e9 cycles and chsh spend it in numpy draws on 1M-row
# chunks; dense-n-sweep in per-point Python set-up and reporting;
# reference-engine in its Python slot loop over 2x2 matrices.
LOOP_KIND = {
    "load-sweep": "vector",
    "dense-n-sweep": "interpreter",
    "chsh": "vector",
    "reference-engine": "interpreter",
}


def make_spec(workload: str, seed: int, tiny: bool, out: str) -> dict:
    """The program inputs of one workload for one workload seed."""
    if workload not in _SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    program_seed = random.Random(f"{workload}/{seed}").randrange(1, 2**31)
    cycles = _SIZES[workload]["tiny" if tiny else "full"]
    spec = {"workload": workload, "seed": program_seed, "cycles": cycles, "out": out,
            "loop": LOOP_KIND[workload]}
    if workload == "load-sweep":
        values = [0.02, 0.05, 0.1, 0.2]
        spec.update(preset=POINT_PRESET, axis="n_m", values=values)
    elif workload == "dense-n-sweep":
        values = list(range(60, 81, 2) if tiny else range(60, 505, 2))
        spec.update(preset=POINT_PRESET, axis="N", values=values)
    elif workload == "chsh":
        spec.update(preset=CHSH_PRESET)
    else:
        spec.update(preset=POINT_PRESET, n_m=2.0)
        return spec
    argv = ["sweep" if "axis" in spec else "chsh", "--preset", spec["preset"]]
    if "axis" in spec:
        argv += ["--axis", spec["axis"], "--values", ",".join(str(v) for v in spec["values"])]
    argv += ["--cycles", str(cycles), "--seed", str(program_seed), "--out", out]
    spec["argv"] = argv
    return spec


def call(spec: dict):
    """Run the program once; returns (wall seconds, output).

    The clock covers the call into the program until its output is
    written: `cli.run(argv)` returns after the CSV file is written, and
    `simulate_session` returns its tally and report.
    """
    import memqkd.cli
    import memqkd.config
    import memqkd.session

    if "argv" in spec:
        t0 = time.perf_counter()
        code = memqkd.cli.run(spec["argv"])
        return time.perf_counter() - t0, code

    cfg = memqkd.config.load_preset(spec["preset"]).replace(
        n_m=spec["n_m"], cycles=spec["cycles"], seed=spec["seed"]
    )
    if cfg.parties.assignment != "single":
        raise ValueError("the reference-engine workload needs assignment = single")
    t0 = time.perf_counter()
    tally, report = memqkd.session.simulate_session(
        cfg.sequence,
        cfg.channel(),
        cfg.parties,
        cfg.noise,
        cfg.cycles,
        cfg.seed,
        overheads=cfg.overheads,
        engine="reference",
    )
    return time.perf_counter() - t0, (tally, report)


def _pair_probability(n: int, n_m: float, eta: float) -> float:
    """Chance that a cycle of n slots heralds exactly twice."""
    a = n_m * eta / n
    return math.comb(n, 2) * a * a * (1.0 - a) ** (n - 2)


def _z(observed: float, trials: int, p: float) -> float:
    mean = trials * p
    return (observed - mean) / math.sqrt(trials * p * (1.0 - p))


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check(spec: dict, output) -> list[str]:
    """Failures of one run's output; an empty list means it is correct."""
    import memqkd.config

    preset = memqkd.config.load_preset(spec["preset"])
    eta = preset.noise.eta_detect
    failures = []
    if "argv" in spec and output != 0:
        return [f"exit code {output}"]

    if spec["workload"] in ("load-sweep", "dense-n-sweep"):
        rows = _read_rows(spec["out"])
        if len(rows) != len(spec["values"]):
            return [f"{len(rows)} rows for {len(spec['values'])} values"]
        for index, (row, value) in enumerate(zip(rows, spec["values"])):
            n = int(row["N"])
            n_m = float(row["n_m"])
            if spec["axis"] == "n_m":
                want_n, want_n_m = preset.sequence.n_qubits, value
            else:
                want_n, want_n_m = value, preset.n_m
            if n != want_n or not math.isclose(n_m, want_n_m, rel_tol=1e-8):
                failures.append(f"row {index}: N={n} n_m={n_m}, asked {want_n}, {want_n_m}")
            if int(row["seed"]) != spec["seed"] + index:
                failures.append(f"row {index}: seed {row['seed']}")
            lo, ml, hi = (float(row[c]) for c in ("qber_lo", "qber_ml", "qber_hi"))
            if not 0.0 <= lo <= ml <= hi <= 0.5:
                failures.append(f"row {index}: QBER interval {lo} {ml} {hi}")
            # sifted_rate is sifted keys per channel use, N * cycles / 2 uses.
            sifted = round(float(row["sifted_rate"]) * n * spec["cycles"] / 2.0)
            z = _z(sifted, spec["cycles"], 0.5 * _pair_probability(n, n_m, eta))
            if abs(z) > Z_LIMIT:
                failures.append(f"row {index}: sifted {sifted} is {z:+.1f} sigma off")
    elif spec["workload"] == "chsh":
        rows = _read_rows(spec["out"])
        for parity in ("1", "-1"):
            terms = [r for r in rows if r["parity"] == parity]
            if len(terms) != 4:
                failures.append(f"parity {parity}: {len(terms)} CHSH terms")
                continue
            s_value = float(terms[0]["S"])
            n_term = int(terms[0]["coincidences"]) * CHSH_TERM_SHARE
            se = math.sqrt(sum(1.0 - float(r["value"]) ** 2 for r in terms) / n_term)
            if abs(s_value - CHSH_EXPECTED_S) > Z_LIMIT * se:
                failures.append(
                    f"parity {parity}: S={s_value:.4f}, expected "
                    f"{CHSH_EXPECTED_S:.4f} +- {Z_LIMIT:g} x {se:.4f}"
                )
    else:
        tally, report = output
        if tally.total() != report.coincidences:
            failures.append(f"tally total {tally.total()} != coincidences {report.coincidences}")
        p = _pair_probability(preset.sequence.n_qubits, spec["n_m"], eta)
        z = _z(report.coincidences, report.cycles, p)
        if abs(z) > Z_LIMIT:
            failures.append(f"coincidences {report.coincidences} are {z:+.1f} sigma off")
    return failures


def csv_size(spec: dict) -> tuple[int, int]:
    """Bytes and data rows of the CSV a run wrote (0, 0 if none)."""
    path = Path(spec["out"])
    if "argv" not in spec or not path.is_file():
        return 0, 0
    text = path.read_text()
    return len(text.encode()), max(0, text.count("\n") - 1)
