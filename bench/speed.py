"""Machine-speed probe: times on a shared host, scaled to a fixed speed.

The virtual machine this benchmark was written on runs pure-Python code
15-35 % faster or slower from one half-minute to the next, depending on
what else the host runs.  Raw timings of the same code therefore spread
wider than any useful regression bound.

A ``SpeedProbe`` measures that speed while a workload runs.  A real-time
interval timer interrupts the process every ``PERIOD_S`` seconds; the
signal handler times three fixed stretches of pure-Python work of the
kinds linturan does (``KERNELS``), in an order that rotates from one
tick to the next, and records when it started and ended and the
geometric mean of the three times.  A query's time is then

    (its wall time - time spent in the handler during it)
        * KERNEL_REF_S / (median of those means around it)

that is, its wall time at the speed at which the mean is
``KERNEL_REF_S``, its typical value on the reference machine (2-vCPU
Intel Xeon at 2.1 GHz, Python 3.11).  The kernels are part of the
benchmark, not of linturan, so a change to the program moves the scaled
times exactly as it moves the raw ones; only the host's speed is divided
out.  The raw times are printed beside the scaled ones.

No single kernel follows every workload: contention from other tenants
slows cache-bound and branch-bound code by different amounts.  Over ten
minutes of interleaved samples on the reference machine, the raw time of
a fixed piece of linturan work spread by 0.23-0.36 (quartile distance
over median, 25-second windows); scaled by one kernel alone by
0.04-0.15, and by the mean of the three by 0.03-0.09.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from itertools import combinations

PERIOD_S = 0.1
# typical geometric mean of the kernels' times on the reference machine
KERNEL_REF_S = 0.00060
# fewest samples a scale factor is taken over
MIN_SAMPLES = 9


def _bookkeeping() -> int:
    """Dict and set bookkeeping on small tuples."""
    seen: dict = {}
    acc = 0
    for i in range(2000):
        key = (i % 97, i % 89, i % 83)
        if key in seen:
            acc += seen[key]
        else:
            seen[key] = i
        acc += len(key)
    return acc


_TABLE_SIZE = 5000
_TABLE: dict = {}  # about 1.5 MB of frozensets, built on first use
_KEYS: list = []
_BASE = frozenset(range(0, 13, 2))


def _lookups() -> int:
    """Look-ups scattered over a table larger than a core's cache."""
    if not _KEYS:
        for i in range(_TABLE_SIZE):
            _TABLE[frozenset((i, i * 7 % 100003 + 1, i * 13 % 100019 + 2))] = i
        _KEYS.extend(_TABLE)
    acc = 0
    for j in range(700):
        key = _KEYS[j * 7919 % _TABLE_SIZE]
        acc += _TABLE[key]
        edge = tuple(sorted(key))
        acc += len(frozenset(edge) & _BASE) + (edge[0] if edge[1] < edge[2] else edge[2])
    return acc


def _packing(n: int) -> list:
    """The greedy linear packing of triples on n vertices, in
    lexicographic order: a fixed linear 3-graph."""
    edges, pairs = [], set()
    for e in combinations(range(n), 3):
        ps = set(combinations(e, 2))
        if not pairs & ps:
            edges.append(frozenset(e))
            pairs |= ps
    return edges


_EDGES = _packing(15)
_INCIDENT: dict = {}
for _i, _e in enumerate(_EDGES):
    for _v in _e:
        _INCIDENT.setdefault(_v, []).append(_i)


def _paths(chain: list, used: frozenset, length: int):
    if len(chain) == length:
        yield tuple(chain)
        return
    for v in _EDGES[chain[-1]]:
        for j in _INCIDENT[v]:
            if j in chain or len(_EDGES[j] & used) != 1:
                continue
            chain.append(j)
            yield from _paths(chain, used | _EDGES[j], length)
            chain.pop()


def _search() -> int:
    """Backtracking search for 600 loose 3-edge paths, with frozensets,
    generators and incidence lists."""
    found = 0
    for i, e in enumerate(_EDGES):
        for _ in _paths([i], e, 3):
            found += 1
            if found == 600:
                return found
    return found


KERNELS = (_bookkeeping, _lookups, _search)


def kernel(rotation: int = 0) -> float:
    """Run every kernel once, starting at KERNELS[rotation % 3], and
    return the geometric mean of their times."""
    product = 1.0
    for k in range(len(KERNELS)):
        run = KERNELS[(rotation + k) % len(KERNELS)]
        t0 = time.perf_counter()
        run()
        product *= time.perf_counter() - t0
    return product ** (1.0 / len(KERNELS))


def calibrate(seconds: float) -> float:
    """KERNEL_REF_S over the median kernel() time in about ``seconds``
    of back-to-back runs: the factor that scales a time taken just
    before to the reference speed."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < MIN_SAMPLES:
        times.append(kernel(len(times)))
    return KERNEL_REF_S / statistics.median(times)


class SpeedProbe:
    """Samples the kernels' time every PERIOD_S while in a ``with`` block."""

    def __init__(self):
        self.starts = array("d")  # when each handler call began
        self.ends = array("d")  # and ended
        self.samples = array("d")  # the kernel() mean it measured
        self._old = None
        self._busy = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrived during the handler
            return
        self._busy = True
        t0 = time.perf_counter()
        sample = kernel(len(self.samples))
        self.ends.append(time.perf_counter())
        self.starts.append(t0)
        self.samples.append(sample)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def paused(self, a: float, b: float) -> float:
        """Time inside the handler between a and b."""
        lo = bisect_right(self.ends, a)
        hi = bisect_left(self.starts, b)
        return sum(
            min(b, self.ends[i]) - max(a, self.starts[i]) for i in range(lo, hi)
        )

    def scale(self, a: float, b: float) -> float:
        """KERNEL_REF_S over the median sample taken between a and b, or
        over the MIN_SAMPLES samples nearest to that interval."""
        while len(self.samples) < MIN_SAMPLES:  # early on, or a short block
            self._tick()
        n = len(self.starts)
        lo, hi = bisect_left(self.starts, a), bisect_right(self.ends, b)
        if hi - lo < MIN_SAMPLES:
            mid = bisect_left(self.starts, (a + b) / 2)
            lo = min(max(mid - MIN_SAMPLES // 2, 0), max(n - MIN_SAMPLES, 0))
            hi = min(lo + MIN_SAMPLES, n)
        return KERNEL_REF_S / statistics.median(self.samples[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """The interval's handler-free time, at the reference speed."""
        return (b - a - self.paused(a, b)) * self.scale(a, b)
