"""Machine-speed probe for the timed runs.

The benchmark's host is a shared VM. Each vCPU's speed swings by tens of
percent over seconds to minutes, and the two vCPUs swing independently,
so a calibration run beside the workload or between samples does not
track it. What does: the worker is pinned to one CPU, and a thread of
the runner pinned to the same CPU wakes every ``PERIOD_S``, runs a small
fixed unit of work once to warm it and then times it. The mean unit
time over a sample measures how fast that CPU ran during the sample. The runner multiplies each sample
by ``REFERENCE_S`` over that mean, so end-to-end times read in seconds
at one fixed machine speed.

The unit mixes what the workloads do: single-column sparse LU solves
(the heat-kernel march), a small dense complex eigenproblem (the
non-Hermitian route) and a pure-Python loop. Its inputs are fixed and
nothing here depends on the seed or on the program under test, so a
change to the program moves the normalised times and not the probe.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

#: unit time, in seconds, that defines the reference speed: about the
#: warm unit's typical time on a 2-vCPU Intel Xeon VM (Python 3.11,
#: OpenBLAS, one thread)
REFERENCE_S = 2.5e-3
#: pause between probes; each probe runs the unit twice, which takes
#: about 7% of the pinned CPU
PERIOD_S = 0.075

_GRID = 40            # 1,600-unknown five-point Laplacian
_SOLVES = 6
_DENSE = 24
_LOOP = 4000


def probe_cpu() -> int:
    """The CPU the worker and the probe share: the last one allowed."""
    return max(os.sched_getaffinity(0))


class SpeedProbe:
    """Times the fixed unit on one CPU from a background thread."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.units = []         # (monotonic start, seconds)
        self._stop = threading.Event()
        rng = np.random.default_rng(20240917)
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.identity(_GRID)
        self._lu = scipy.sparse.linalg.splu(
            (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc())
        self._rhs = np.ones(_GRID * _GRID)
        self._dense = rng.standard_normal((_DENSE, _DENSE)) \
            + 1j * rng.standard_normal((_DENSE, _DENSE))
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _unit(self) -> None:
        x = self._rhs
        for _ in range(_SOLVES):
            x = self._lu.solve(x)
            x /= x.max()
        scipy.linalg.eig(self._dense)
        total = 0
        for i in range(_LOOP):
            total += i * i

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})   # this thread only
        while not self._stop.is_set():
            start = time.monotonic()
            # the worker evicts the unit's data while the probe sleeps; a
            # cold unit waits on memory and tracks the CPU's speed less
            # closely than the warm one that follows
            self._unit()
            t0 = time.perf_counter()
            self._unit()
            self.units.append((start, time.perf_counter() - t0))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, t0: float, t1: float) -> float | None:
        """``REFERENCE_S`` over the mean unit time in [t0, t1]; None
        when no unit started in that window."""
        inside = [d for start, d in self.units if t0 <= start <= t1]
        return REFERENCE_S / statistics.fmean(inside) if inside else None
