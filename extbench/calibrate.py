"""Reference seconds: wall time rescaled by a calibration kernel.

The machine this benchmark was written on switches between speed states on
a scale of seconds, and the slow state stretches interpreter-bound code
more than dense products. A time is therefore reported as

    t_ref = t_net * C0 / c

``t_net`` is the wall time minus the time the kernel itself ran inside it.
``c`` is the kernel's wall time, measured in the same process next to and
during the timed work: for each job of a round, from the samples that
overlap it or lie within one tick of it. ``C0`` is a fixed constant.

The kernel runs three parts: scalar Python, small numpy calls and one
complex 256x256 matrix product. c / C0 weighs each part's time against its
nominal time with shares that follow the workload's own mix of work. This
module imports numpy only, never extflow.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Nominal seconds of the kernel's parts (scalar, small numpy, dense); they
# only fix the unit of a reference second.
PART_REF_S = (0.0012, 0.0014, 0.0035)
# Shares of the parts in c, per kind of workload. Interpreter-bound work
# (flow elements, model builds, shooting, imports) follows the small numpy
# calls most closely; dense grid work follows the matrix product.
INTERPRETER_SHARES = (0.1, 0.7, 0.2)
DENSE_SHARES = (0.1, 0.1, 0.8)
TICK_S = 0.1


class Kernel:
    """A fixed slice of mixed work; ``run`` times each of its three parts."""

    def __init__(self):
        rng = np.random.default_rng(20150312)
        self._dense = (rng.standard_normal((256, 256))
                       + 1j * rng.standard_normal((256, 256))) / 16.0
        self._small = np.array([[0.9, 0.1], [-0.1, 0.95]], dtype=complex)
        self._shift = np.array([0.1, 0.2j])

    def run(self) -> tuple:
        """Wall seconds of the three parts: scalar, small numpy, dense."""
        t0 = time.perf_counter()
        z = 0.3 + 0.1j
        acc = 0.0
        for _ in range(6000):
            z = z * (0.5 + 0.25j) + 0.1
            acc += abs(z) * 0.5
        t1 = time.perf_counter()
        y = np.ones(2, dtype=complex)
        for _ in range(120):
            y = 0.5 * (self._small @ y) + self._shift
            acc += float(np.max(np.abs(y)))
        t2 = time.perf_counter()
        product = self._dense @ self._dense
        acc += product[0, 0].real
        t3 = time.perf_counter()
        return t1 - t0, t2 - t1, t3 - t2


class Calibrator:
    """Kernel samples taken on demand and, while ticking, from a SIGALRM
    timer every TICK_S seconds. Each sample keeps its start and end in
    perf_counter seconds and the wall seconds of the kernel's three parts."""

    def __init__(self):
        self.kernel = Kernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parts: list[tuple] = []
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            parts = self.kernel.run()
            end = time.perf_counter()
            self.starts.append(start)
            self.ends.append(end)
            self.parts.append(parts)
        finally:
            self._busy = False

    def _on_tick(self, signum, frame):
        self.sample()

    def start_ticking(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticking(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_time_inside(self, a: float, b: float) -> float:
        """Seconds of [a, b] during which the kernel ran."""
        total = 0.0
        i = bisect.bisect_left(self.ends, a)
        while i < len(self.starts) and self.starts[i] < b:
            total += max(0.0, min(b, self.ends[i]) - max(a, self.starts[i]))
            i += 1
        return total

    def part_medians(self, first: int, last: int) -> tuple:
        """Median seconds of each kernel part over samples first..last-1."""
        return tuple(statistics.median(p[k] for p in self.parts[first:last])
                     for k in range(3))

    def measure(self, works, shares):
        """Run each of ``works`` in turn, bracketed by a kernel sample on
        each side of the whole sequence.

        Returns (results, raw_s, net_s, ref_s, parts) for the sequence.
        ref_s sums each work's net time in reference seconds, with c taken
        from the samples that overlap the work or lie within one tick of it;
        parts are the part medians over all the samples."""
        first = len(self.starts)
        self.sample()
        results, windows = [], []
        for work in works:
            a = time.perf_counter()
            results.append(work())
            windows.append((a, time.perf_counter()))
        self.sample()
        last = len(self.starts)
        net_total = ref_total = 0.0
        for a, b in windows:
            net = (b - a) - self.kernel_time_inside(a, b)
            lo = bisect.bisect_left(self.ends, a - TICK_S, first, last)
            hi = bisect.bisect_right(self.starts, b + TICK_S, first, last)
            if lo >= hi:
                lo, hi = first, last
            net_total += net
            ref_total += to_reference(net, self.part_medians(lo, hi), shares)
        raw = windows[-1][1] - windows[0][0]
        return results, raw, net_total, ref_total, self.part_medians(first, last)


def to_reference(net_s: float, parts, shares) -> float:
    """net_s * C0 / c, where c / C0 is the share-weighted mean of the
    measured part times over their nominal ones."""
    return net_s / sum(s * p / r for s, p, r in zip(shares, parts, PART_REF_S))
