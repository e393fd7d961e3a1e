"""Benchmark inputs, generated from the workload seed alone.

Nothing here imports the program: the sweep and FL workloads are handed
plain base seeds for their configuration, the serve workload a schedule
of request bodies.  The same seed always gives the same inputs.

Seed 0 is the default seed: its first input set is exactly the stock
configuration (``base_seed`` 0), whose result CSV is pinned by digest in
:mod:`perfbench.gates`.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Iterator

__all__ = [
    "DEFAULT_SEED",
    "WORKLOADS",
    "RequestMix",
    "INPUT_SETS",
    "base_seeds",
    "serve_schedule",
]

DEFAULT_SEED = 0

#: name -> why it is in the benchmark (mirrored in BENCHMARK.json).
WORKLOADS = {
    "sweep": "cold allocation path: fig2 grid through SweepRunner, per-drop solve, "
    "fresh columnar store; core and solvers do ~95% of the work",
    "serve": "repro serve over HTTP: Poisson open loop below the knee, then closed-loop "
    "saturation; ~75% store hits, ~25% coalesced cold solves",
    "fl": "flcurve closed loop: 3 schemes x 2 families x oracle/estimated profiles, churn, "
    "battery, deadline-k; training, selection and estimation beside one small solve",
}

#: Input sets per ``sweep`` / ``fl`` run.  Once times are scaled to the
#: reference host speed, which drops a seed draws is what spreads a
#: metric most: in ``fl`` the proposed scheme's per-round cost ranges from
#: 13 to 33 ms between drops and the median round sits among that
#: scheme's runs.  Six sets pool twelve of them; a 30 s run still repeats
#: the first sets.
INPUT_SETS = 6


def base_seeds(workload: str, seed: int) -> list[int]:
    """The sweep ``base_seed`` of each input set of a ``sweep`` or ``fl`` run.

    Timed passes cycle through the sets, so every set is repeated and the
    repetitions differ only in how fast the host was.  The default seed's
    first set is the stock configuration (``base_seed`` 0).
    """
    rng = random.Random(f"{workload}:{seed}")
    seeds = [0] if seed == DEFAULT_SEED else []
    while len(seeds) < INPUT_SETS:
        seeds.append(rng.randrange(1, 1_000_000) * 16)
    return seeds


#: Every ``POST /solve`` body asks for a drop of this many devices ...
NUM_DEVICES = 12
#: ... from one of these scenario families ...
FAMILIES = ("paper", "hotspot")
#: ... at one of these energy weights.
ENERGY_WEIGHTS = (0.1, 0.5, 0.9)
#: Every this-many-th fresh request asks for a baseline scheme instead,
#: cycling through ``BASELINES``.
BASELINE_EVERY = 25
BASELINES = ("static", "delay_min")


class RequestMix:
    """The seeded stream of ``POST /solve`` bodies.

    In every block of four requests exactly one is *fresh* (a new drop, so
    a cold solve) and three repeat the body of an earlier fresh request
    (store hits).  Fresh requests take the family x energy-weight pairs in
    seeded-shuffled rounds of all six, so every seed solves the same mix of
    problem kinds and only the drops differ.  Every ``BASELINE_EVERY``-th fresh request asks for a
    baseline scheme, which takes the coalescer's per-drop path.  No request
    carries a ``deadline_s``: deadline-constrained solves of some 12-device
    drops take 14-20 s, which would make every run's tail a lottery.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(f"serve:{seed}")
        self._fresh: list[dict[str, Any]] = []
        self._block: list[bool] = []
        self._kinds: list[tuple[str, float]] = []

    def _fresh_body(self) -> dict[str, Any]:
        index = len(self._fresh)
        if not self._kinds:
            self._kinds = list(itertools.product(FAMILIES, ENERGY_WEIGHTS))
            self._rng.shuffle(self._kinds)
        family, energy_weight = self._kinds.pop()
        body: dict[str, Any] = {
            "scenario": {"family": family, "num_devices": NUM_DEVICES, "seed": self.seed * 100_000 + index},
            "energy_weight": energy_weight,
        }
        if index % BASELINE_EVERY == BASELINE_EVERY - 1:
            body["solver_kind"] = "baseline"
            body["baseline"] = BASELINES[(index // BASELINE_EVERY) % len(BASELINES)]
        self._fresh.append(body)
        return body

    def next(self) -> dict[str, Any]:
        """The next request body of the stream."""
        if not self._block:
            self._block = [False, False, False]
            self._block.insert(self._rng.randrange(4), True)
        fresh = self._block.pop(0)
        if fresh or not self._fresh:
            return self._fresh_body()
        return self._rng.choice(self._fresh)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        while True:
            yield self.next()


def serve_schedule(mix: RequestMix, rate: float, duration_s: float) -> list[tuple[float, dict]]:
    """Poisson arrivals at ``rate`` per second for ``duration_s`` seconds.

    Returns ``(due offset in seconds, body)`` pairs; the arrival gaps come
    from their own seeded stream, so the bodies do not depend on the rate.
    """
    rng = random.Random(f"arrivals:{mix.seed}")
    schedule: list[tuple[float, dict]] = []
    due = rng.expovariate(rate)
    while due < duration_s:
        schedule.append((due, mix.next()))
        due += rng.expovariate(rate)
    return schedule
