"""Host-speed yardsticks: one for compute, one for imports.

The benchmark shares its host with other tenants. On the reference host the
same solve takes up to 60 % longer from one minute to the next while the
process keeps a whole core (CPU time follows wall time and steal time is near
zero), and ten 30-second runs of fixed work spread by 10 % to 20 % between
their quartiles.

The yardstick is fixed work in the package's style (products and ``eigvalsh``
of small complex Hermitian matrices, and numpy scalar arithmetic driven from
Python) that calls no package code. Sampled between solves, its time follows
the host's speed and never a change to the package, so scaling a run's times
by ``NOMINAL_S`` over its mean time per unit of work cancels most of the
drift: in ten consecutive 25-second windows of identical solves, the spread
of solves per second fell from 21 % raw to 7 % scaled. One unit takes about
13 ms and single units vary by 25 %, so each sample runs units for
``SHARE`` of the time since the previous sample: a run with few long solves
gets as much yardstick time as one with many short solves, and every second
of the run weighs the same in the mean.

Set-up time is mostly the import of numpy and scipy, and it drifts apart from
compute speed: between two sets of ten runs an hour apart, set-up medians
moved by 14-30 % while the compute yardstick moved by under 5 %. Its
yardstick is the import of the installed numpy and ``scipy.optimize`` in a
fresh interpreter, which no change to the package can move.
"""

import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 0.013   # a unit's time on the reference host at a typical moment
EVERY_S = 0.5       # least time between two samples
SHARE = 0.04        # yardstick time per second since the previous sample
NOMINAL_IMPORT_S = 0.70   # a reference import's time on the reference host

_REFERENCE_IMPORT = """
import time
start = time.perf_counter()
import numpy, scipy.optimize
print(repr(time.perf_counter() - start))
"""


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(3)
        self._mats = []
        for n in (4, 6, 9):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            self._mats.append(z + z.conj().T)
        self.samples = 0
        self.units = 0
        self.total_s = 0.0
        self._last = None

    def _unit(self):
        for _ in range(60):
            for m in self._mats:
                c = m @ m - m.T @ m
                np.abs(np.linalg.eigvalsh(1j * (c - c.conj().T))).sum()
            acc = 0.0
            for k in range(50):
                acc += np.cos(k) * np.sin(k)

    def maybe_sample(self):
        """Unless the previous sample ended less than ``EVERY_S`` ago, run
        units for ``SHARE`` of the time since then, and at least one."""
        start = time.perf_counter()
        if self._last is not None and start - self._last < EVERY_S:
            return
        budget = SHARE * (start - self._last) if self._last is not None else 0.0
        while True:
            self._unit()
            self.units += 1
            if time.perf_counter() - start >= budget:
                break
        self._last = time.perf_counter()
        self.samples += 1
        self.total_s += self._last - start

    def slowdown(self) -> float:
        """The host's slowdown over the run: mean time per unit over ``NOMINAL_S``."""
        return self.total_s / self.units / NOMINAL_S


def reference_import_s() -> float:
    """Time of the reference import, as a fresh interpreter reports it."""
    out = subprocess.run([sys.executable, "-c", _REFERENCE_IMPORT], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])
