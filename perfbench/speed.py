"""How fast the benchmark's CPU runs while a call runs, from a fixed
reference computation sampled before, during and after the call.

On a shared virtual machine the host lends the guest a share of its cores,
and their speed wanders by a fifth or more within seconds as other tenants'
load comes and goes.  A workload call timed on its own carries that wander
with it.  So a :class:`Probe` runs one short reference round before the
call, one every ``PERIOD_S`` seconds during it (from a ``SIGALRM`` handler,
between the program's bytecodes), and one after it, on the same CPU.  The
call's time, less the rounds run inside it, is then scaled by
``REFERENCE_S / mean round time``: the seconds the call would have taken on
a host on which a round takes ``REFERENCE_S``.  The reference code never
changes, so a change to ``pairscreen`` moves the scaled time as much as the
raw time.

A round does the three kinds of work the workloads spend their time on: a
per-cell Python parse of CSV text, logistic Newton fits on n=1000 with
NumPy, and tiny least-squares fits whose cost is per-call overhead.
"""

from __future__ import annotations

import csv
import io
import os
import signal
import statistics
import time

import numpy as np

# Nominal seconds of one reference_round() on the 2-core Xeon the benchmark
# was written on, when the host was quiet.
REFERENCE_S = 0.03
# Seconds of program time between two rounds inside a call.
PERIOD_S = 0.4

_RNG = np.random.default_rng(7)
_CSV = "\n".join(
    ",".join(repr(v) for v in row) for row in np.round(_RNG.standard_normal((400, 50)), 6).tolist()
)
_X = np.column_stack([np.ones(1000), _RNG.standard_normal((1000, 3))])
_Y = (_RNG.random(1000) < 0.4).astype(float)
_SMALL = np.column_stack([np.ones(50), _RNG.standard_normal((50, 3))])
_SMALL_Y = _RNG.standard_normal(50)


def _parse() -> float:
    total = 0.0
    for row in csv.reader(io.StringIO(_CSV)):
        for cell in row:
            total += float(cell)
    return total


def _newton() -> float:
    beta = np.zeros(_X.shape[1])
    for _ in range(6):
        mu = 1.0 / (1.0 + np.exp(-(_X @ beta)))
        weight = mu * (1.0 - mu)
        beta = beta + np.linalg.solve((_X * weight[:, None]).T @ _X, _X.T @ (_Y - mu))
    return float(beta[0])


def _tiny_fits() -> float:
    total = 0.0
    for j in range(400):
        y = _SMALL_Y + 0.01 * j
        total += np.linalg.solve(_SMALL.T @ _SMALL, _SMALL.T @ y)[1]
    return total


def reference_round() -> tuple[float, float]:
    """Run one round of the reference computation; return its (wall, CPU)
    seconds."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(2):
        _parse()
    for _ in range(35):
        _newton()
    _tiny_fits()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def reference(rounds: int) -> tuple[float, float]:
    """Mean (wall, CPU) seconds of ``rounds`` reference rounds."""
    times = [reference_round() for _ in range(rounds)]
    return statistics.fmean(t[0] for t in times), statistics.fmean(t[1] for t in times)


class Probe:
    """Reference rounds around, and optionally inside, one timed call.

    ``start`` runs a round and, with ``sample``, arms a one-shot timer whose
    handler runs a round and re-arms it.  ``stop`` disarms it; the caller
    reads the clocks after ``stop`` and subtracts ``paused``, the (wall,
    CPU) seconds the rounds inside the call took.  ``finish`` runs the
    closing round and returns the mean round time of the call.
    """

    def __init__(self):
        self.rounds: list[tuple[float, float]] = []
        self.paused = (0.0, 0.0)
        self._active = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if not self._active:  # delivered after stop(): ignore
            return
        wall, cpu = reference_round()
        self.rounds.append((wall, cpu))
        self.paused = (self.paused[0] + wall, self.paused[1] + cpu)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self, sample: bool) -> None:
        self.rounds = [reference_round()]
        self.paused = (0.0, 0.0)
        self._active = sample
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def finish(self) -> tuple[float, float]:
        self.rounds.append(reference_round())
        return (statistics.fmean(r[0] for r in self.rounds),
                statistics.fmean(r[1] for r in self.rounds))


def pin_to_one_cpu() -> int:
    """Keep this process, and the processes it starts, on one CPU, so that
    the reference and the calls it scales run on the same core.  Returns
    that CPU's number."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
