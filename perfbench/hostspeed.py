"""How fast the host runs right now, to scale measured times by.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent within minutes, whatever the program does. Each run of the
program times a fixed loop right after its call, and the runner scales
that run's times by

    NOMINAL_LOOP_S[kind] / (median loop time of the run)

so a time reads as it would on a host where the loop takes
NOMINAL_LOOP_S[kind]. A change to the program moves its own time and
not the loop's, so it still shows in full. The loop runs after the
run's peak memory is read, so it cannot add to it.

Contention slows interpreter work and large numpy array work by
different amounts, so there are two loops, and each workload is scaled
by the one that does its kind of work (workloads.LOOP_KIND):

- "interpreter": integer arithmetic plus 2x2 numpy products, the mix
  of the reference engine's slot loop and of per-point set-up. It also
  scales set-up time, which is spent importing modules.
- "vector": draws and elementwise work on half-million-element arrays,
  the mix of the fast engine's per-coincidence sampling.

The runner imports only `scale`, which needs no numpy.
"""

from __future__ import annotations

import statistics
import time

INT_ITERATIONS = 100_000
MATMUL_ITERATIONS = 3_000
VECTOR_SIZE = 500_000
# Each loop's time on the nominal host the scaled times refer to.
NOMINAL_LOOP_S = {"interpreter": 0.020, "vector": 0.028}
REPS = 8


def _interpreter_loop() -> float:
    import numpy as np

    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    rho = np.eye(2) * 0.5
    t0 = time.perf_counter()
    total = 0
    for i in range(INT_ITERATIONS):
        total += i * i
    for _ in range(MATMUL_ITERATIONS):
        rho = flip @ rho @ flip
    return time.perf_counter() - t0


def _vector_loop() -> float:
    import numpy as np

    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    sign = np.where(rng.random(VECTOR_SIZE) < 0.3, 1, -1)
    slot = rng.integers(0, 124, size=VECTOR_SIZE)
    scatter = rng.binomial(122, 0.01, size=VECTOR_SIZE)
    int((sign * slot + scatter).sum())
    return time.perf_counter() - t0


_LOOPS = {"interpreter": _interpreter_loop, "vector": _vector_loop}


def loop_times(kind: str, reps: int = REPS) -> list[float]:
    """Times of `reps` runs of the `kind` loop, in s."""
    return [_LOOPS[kind]() for _ in range(reps)]


def scale(kind: str, loop_s: list[float]) -> float:
    """Factor that turns a time measured next to `loop_s` into nominal-host seconds."""
    return NOMINAL_LOOP_S[kind] / statistics.median(loop_s)
