"""memqkd benchmark: end-to-end and per-layer metrics of one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of the program is a fresh interpreter (perfbench/child.py)
that imports memqkd from ./src, calls it once and checks its output.
Runs repeat until --seconds have passed (at least three of each kind),
and each metric is the median over them. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it give every metric with its sample count, the
environment, and any failed check. Workload and metric names, and
metric units, are read from BENCHMARK.json at the root.

Times are scaled to a nominal host speed: every child also times fixed
loops (hostspeed.py) after its call, and its wall and set-up times are
multiplied by nominal loop time / its median loop time, using the loop
that does the workload's kind of work for wall time and the
interpreter loop for set-up. The lines before the JSON give the raw
medians and the median scales too.

--trace 0 reports the end-to-end metrics, with tracing off. --trace 1
alternates untraced and traced runs and reports the per-layer metrics
of the traced ones (tracer.py) plus the tracing overhead. README.md
lists the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "memqkd"
# A run must end within 180 s; stop starting new program runs before that.
DEADLINE_S = 165.0
MIN_RUNS = 3
SETUP_SAMPLES = 11
# Workload names and metric names and units live in BENCHMARK.json.
BENCHMARK = ROOT / "BENCHMARK.json"


def metric_units(benchmark: dict, kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(summary: dict, counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced run (loc and overhead excluded)."""
    layers, functions = summary["layers"], summary["functions"]

    def inclusive(name: str) -> float:
        return functions.get(name, {}).get("inclusive_s", 0.0)

    metrics = {}
    for layer, data in layers.items():
        metrics[f"{layer}.self_s"] = data["self_s"]
        metrics[f"{layer}.self_share"] = data["self_s"] / wall
        metrics[f"{layer}.calls"] = data["calls"]
    cycles = counts.get("session.cycles", 0)
    coincidences = counts.get("session.coincidences", 0)
    discarded = counts.get("session.discarded_multi", 0)
    bsm_cycles = functions.get("bsm.run_memory_cycle_traced", {}).get("calls", 0)
    metrics.update({
        "config.load_s": layers["config"]["inclusive_s"],
        "session.cycles": cycles,
        "session.coincidences": coincidences,
        "session.ns_per_coincidence": _ratio(layers["session"]["self_s"], coincidences, 1e9),
        "session.coincidence_frac": _ratio(coincidences, cycles),
        "session.discard_frac": _ratio(discarded, coincidences + discarded),
        "session.same_party_frac": _ratio(counts.get("session.same_party", 0), coincidences),
        "session.sift_s": inclusive("session.sift"),
        "session.chsh_s": inclusive("session.chsh_statistic"),
        "bsm.cycles": bsm_cycles,
        "bsm.us_per_cycle": _ratio(layers["bsm"]["inclusive_s"], bsm_cycles, 1e6),
        "qubits.pi_pulse_s": inclusive("qubits.apply_pi_pulse"),
        "qubits.dephasing_s": inclusive("qubits.apply_dephasing"),
        "qubits.herald_s": inclusive("qubits.reflect_and_herald"),
        "qubits.readout_s": inclusive("qubits.measure_x"),
        "rates.posterior_s": inclusive("rates.qber_posterior"),
        "rates.report_s": inclusive("rates.build_report"),
        "rates.grid_points": counts.get("rates.grid_points", 0),
        "cli.csv_bytes": counts.get("cli.csv_bytes", 0),
        "cli.rows": counts.get("cli.rows", 0),
    })
    return metrics


def loc_counts() -> dict:
    def lines(path: Path) -> int:
        return path.read_bytes().count(b"\n")

    counts = {f"{layer}.loc": lines(SRC / f"{layer}.py") for layer in tracer.LAYERS}
    counts["src.loc"] = sum(lines(path) for path in sorted(SRC.rglob("*.py")))
    return counts


def environment(probe: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "memqkd": probe["memqkd"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **loc_counts(),
    }


class Spawner:
    """Starts one child interpreter per run and waits for it to end."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Let the warm-up run write bytecode caches, as an installed package
        # has them, whatever the caller's environment says.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.last_s = 0.0

    def __call__(self, spec: dict) -> dict | None:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline + 10.0 - t0),
            )
        except subprocess.TimeoutExpired:
            print("run timed out", file=sys.stderr)
            return None
        finally:
            self.last_s = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"run exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - t0
        loops = result["loop_s"]
        result["setup_scale"] = hostspeed.scale("interpreter", loops["interpreter"])
        if "loop" in spec:
            result["wall_scale"] = hostspeed.scale(spec["loop"], loops[spec["loop"]])
        return result

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def _report(name: str, unit: str, values: list) -> None:
    print(f"{name:28s} {statistics.median(values):12.6g} {unit:6s} "
          f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")


def measure(args, benchmark: dict, work: Path) -> int:
    start = time.monotonic()
    spawn = Spawner(start + DEADLINE_S)
    probe = {"probe": True, "root": str(ROOT)}
    warm = spawn(probe)  # fills the bytecode caches; not counted
    if warm is None:
        print("cannot start the program", file=sys.stderr)
        return 1
    base = workloads.make_spec(args.workload, args.seed, args.tiny, str(work / "out.csv"))
    base["root"] = str(ROOT)

    kinds = (False, True) if args.trace else (False,)
    runs: list[tuple[bool, dict | None, str]] = []
    setups: list[dict] = []
    while True:
        traced = kinds[len(runs) % len(kinds)]
        spans = str(work / f"spans-{len(runs)}.npz")
        result = spawn(dict(base, trace=traced, spans=spans))
        runs.append((traced, result, spans))
        if result is not None:
            setups.append(result)
            for failure in result["failures"]:
                print(f"check failed: {failure}", file=sys.stderr)
        done = time.monotonic() - start >= args.seconds and len(runs) >= MIN_RUNS * len(kinds)
        if done or spawn.time_left() < 2.0 * spawn.last_s:
            break
    while not args.trace and len(setups) < SETUP_SAMPLES and spawn.time_left() > 5.0:
        result = spawn(probe)
        if result is not None:
            setups.append(result)

    good = [(traced, r, spans) for traced, r, spans in runs
            if r is not None and not r["failures"]]
    attempted, failed = len(runs), len(runs) - len(good)
    untraced = [r for traced, r, _ in good if not traced]
    traced_runs = [(r, spans) for traced, r, spans in good if traced]
    if not untraced or (args.trace and not traced_runs):
        print("no run of the program succeeded", file=sys.stderr)
        return 1

    print(f"# env {json.dumps(environment(warm))}")
    print(f"# workload {args.workload} seed {args.seed} (program seed {base['seed']}): "
          f"{attempted} runs attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    median = statistics.median
    print(f"# raw (unscaled) medians: wall_s {median(r['wall_s'] for r in untraced):.6g} s, "
          f"setup_s {median(r['setup_s'] for r in setups):.6g} s; host-speed scales: "
          f"{base['loop']} loop {median(r['wall_scale'] for r in untraced):.6g}, "
          f"interpreter loop {median(r['setup_scale'] for r in setups):.6g}")
    samples: dict[str, list] = {}
    if not args.trace:
        samples["wall_s"] = [r["wall_s"] * r["wall_scale"] for r in untraced]
        samples["setup_s"] = [r["setup_s"] * r["setup_scale"] for r in setups]
        samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in untraced]
        units = metric_units(benchmark, "end_to_end")
    else:
        for r, spans in traced_runs:
            metrics = layer_metrics(tracer.summarize(spans), r["counts"], r["wall_s"])
            for name, value in metrics.items():
                samples.setdefault(name, []).append(value)
        for name, value in loc_counts().items():
            samples[name] = [value]
        untraced_wall = median(r["wall_s"] for r in untraced)
        traced_wall = median(r["wall_s"] for r, _ in traced_runs)
        samples["trace.overhead_frac"] = [(traced_wall - untraced_wall) / untraced_wall]
        units = metric_units(benchmark, "per_layer")
    for name, unit in units.items():
        _report(name, unit, samples[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny program inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"memqkd sources not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        return measure(args, benchmark, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
