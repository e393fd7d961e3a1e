"""Host-speed probe: how fast the CPU the workload runs on is, moment by moment.

On a shared host the same pass of the program can take twice as long a
minute later, because a neighbour loads the physical core; each CPU's
slow spells come and go on their own.  The probe runs a fixed reference
computation that does not touch the program (small NumPy array maths,
float conversions and dict stores, like the allocator's inner loops) and
records the CPU time it took.  CPU time leaves out time the probe waited
to be scheduled, so pinning the probe to the workload's CPU measures that
CPU's speed without counting the workload's own use of it.

``child.py`` calls :func:`reference` itself between two operations of the
``sweep`` and ``fl`` workloads.  For ``serve``, whose server runs only the
program's code, the benchmark starts the probe as a process pinned to
the server's CPU::

    python3 perfbench/probe.py --cpu N --out SAMPLES.txt

Every ``INTERVAL_S`` it appends ``<perf_counter at mid-probe> <CPU seconds>``
to ``--out`` until it receives SIGTERM.  :class:`HostSpeed` reads the
samples back and scales a measured time to the reference speed.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["INTERVAL_S", "REFERENCE_S", "HostSpeed", "reference", "main"]

#: Seconds between probes (one probe costs about 1 ms of CPU).
INTERVAL_S = 0.05
#: The probe's CPU time on an unloaded core of the reference host: a
#: measured time is reported as ``time * REFERENCE_S / probe time``, i.e.
#: as it would read on that host.
REFERENCE_S = 0.001
#: Probes this far before and after a measured interval are pooled.
WINDOW_S = 0.25

_X0 = np.linspace(0.5, 2.0, 20)


def reference() -> float:
    """CPU seconds of one fixed reference computation."""
    started = time.thread_time()
    store: dict[int, tuple[float, int]] = {}
    x = _X0
    for i in range(150):
        y = np.exp(-x) * x / (1.0 + x * x)
        store[i % 13] = (float(y.sum()) + math.log1p(i), i)
        x = _X0 + 0.001 * i
    return time.thread_time() - started


class HostSpeed:
    """Probe samples of one run, to scale measured times to the reference host."""

    def __init__(self, path: str | Path) -> None:
        rows = [line.split() for line in Path(path).read_text().splitlines() if line.strip()]
        self._stamps = [float(stamp) for stamp, _ in rows]
        self._costs = [float(cost) for _, cost in rows]
        if len(self._costs) < 3:
            raise ValueError(f"only {len(self._costs)} host-speed probes were recorded")

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe time around ``[start, end]``."""
        near = [
            cost
            for stamp, cost in zip(self._stamps, self._costs)
            if start - WINDOW_S <= stamp <= end + WINDOW_S
        ]
        if len(near) < 3:  # fall back to the three probes nearest the middle
            middle = (start + end) / 2.0
            order = sorted(range(len(self._stamps)), key=lambda i: abs(self._stamps[i] - middle))
            near = [self._costs[i] for i in order[:3]]
        return REFERENCE_S / statistics.median(near)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at the reference speed."""
        return seconds * self.factor(start, end)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    reference()  # first call pays NumPy's lazy set-up
    with open(args.out, "w") as out:
        print("READY", flush=True)
        while not stop:
            started = time.perf_counter()
            cost = reference()
            out.write(f"{(started + time.perf_counter()) / 2.0!r} {cost!r}\n")
            out.flush()
            time.sleep(INTERVAL_S)
    return 0


if __name__ == "__main__":
    sys.exit(main())
