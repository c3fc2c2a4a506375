"""Machine-speed sampling, so host times can be compared across runs.

The sandboxes this benchmark runs in change speed under it: each vCPU
flips between a fast and a ~25 % slower state for tens of seconds at a
time (a neighbour on the same physical core), independently per core,
and process CPU time slows with the wall.  A raw wall therefore carries
the machine's state as well as the program's cost (ten raw walls of one
workload spread 6-27 % between quartiles here), and no number of repeats
inside one run averages out a state that outlasts the run.

So every untraced child times a fixed kernel - benchmark code that no
change to the program can touch - every ``PERIOD_S`` from a SIGALRM
handler, on whatever core it is on at that moment.  A sample's speed is
``KERNEL_REF_S / kernel seconds``; the work done in a window is its wall
(less the time spent in the kernel) times the mean sampled speed, which
is what is reported: seconds of a machine on which the kernel takes
``KERNEL_REF_S``.  The same ten walls then spread 1.3-8.1 %, typically 3 %.  The raw wall
and the speed are kept beside every normalised time.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

PERIOD_S = 0.03
# Set-up lasts a quarter of a second: sample it three times as often.
SETUP_PERIOD_S = 0.01
# Kernel seconds in this sandbox's usual state: speed reads ~1.0 there.
KERNEL_REF_S = 1.15e-3


def kernel(n: int = 1500) -> None:
    """Heap pushes and pops, dict updates, tuple allocation: the mix the
    simulator's event loop is made of, in a fixed amount."""
    heap: list = []
    table: dict = {}
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        table[i & 63] = (i, table.get(i & 63))
    while heap:
        heapq.heappop(heap)


class SpeedSampler:
    """Kernel timings ``(when, seconds)`` taken every ``PERIOD_S``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _tick(self, _signum, _frame) -> None:
        # The kernel's garbage must not set off a collection of the
        # program's heap inside the sample.
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if collecting:
            gc.enable()

    def start(self, period_s: float = PERIOD_S) -> None:
        """Start sampling, or change the period of a running sampler."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, t0: float, t1: float, wall: float | None = None) -> tuple[float, float]:
        """``(reference seconds, mean speed)`` of the ``perf_counter``
        window ``[t0, t1]``.  ``wall`` replaces ``t1 - t0`` when the
        interval began before this process could sample (set-up).  A
        window too short to hold a sample borrows the nearest one."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        spent = sum(inside)
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        speed = sum(KERNEL_REF_S / d for d in inside) / len(inside)
        return ((t1 - t0 if wall is None else wall) - spent) * speed, speed
