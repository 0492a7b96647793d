"""One benchmark run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC_JSON

Imports numpy and memqkd, notes when it is ready for the first call,
calls the program once (traced if the spec says so), reads its peak
resident memory, times the host-speed loop (hostspeed.py), checks the
output, and prints one JSON line. A spec of {"probe": true} stops after
the imports and the loop times, to sample set-up time alone.
The process starts fresh for every run so that set-up time and peak
memory belong to that run alone; `ru_maxrss` never resets in-process.
"""

import time

# Set-up ends once numpy and every memqkd module (memqkd.cli imports
# them all) are ready; the harness's own imports below are not part of it.
import numpy
import memqkd
import memqkd.cli

READY = time.monotonic()

import json
import resource
import sys
from collections import Counter
from pathlib import Path

import hostspeed
import tracer
import workloads


def _observers(counts: Counter) -> dict:
    def on_session(result) -> None:
        _, report = result
        counts["session.cycles"] += report.cycles
        counts["session.coincidences"] += report.coincidences
        counts["session.discarded_multi"] += report.discarded_multi
        counts["session.same_party"] += report.same_party

    def on_posterior(result) -> None:
        counts["rates.grid_points"] += len(result.grid)

    return {"session.simulate_session": on_session, "rates.qber_posterior": on_posterior}


def main(spec: dict) -> int:
    src = Path(spec["root"], "src").resolve()
    if src not in Path(memqkd.__file__).resolve().parents:
        print(f"memqkd imported from {memqkd.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"ready": READY, "numpy": numpy.__version__, "memqkd": memqkd.__version__}
    if spec.get("probe"):
        result["loop_s"] = {"interpreter": hostspeed.loop_times("interpreter")}
        print(json.dumps(result))
        return 0

    counts: Counter = Counter()
    trace = tracer.Tracer(_observers(counts)) if spec["trace"] else None
    if trace is not None:
        trace.install()
    try:
        wall, output = workloads.call(spec)
    finally:
        if trace is not None:
            trace.uninstall()
    result["wall_s"] = wall
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # After ru_maxrss, so that the loops cannot touch the program's peak.
    kinds = dict.fromkeys([spec["loop"], "interpreter"])
    result["loop_s"] = {kind: hostspeed.loop_times(kind) for kind in kinds}
    result["failures"] = workloads.check(spec, output)
    if trace is not None:
        counts["cli.csv_bytes"], counts["cli.rows"] = workloads.csv_size(spec)
        result["counts"] = dict(counts)
        trace.save(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
