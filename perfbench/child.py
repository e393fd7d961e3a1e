"""Workload child for ``sweep`` and ``fl``: one fresh interpreter per run.

Usage (from the checkout root, with ``src`` and the root on PYTHONPATH)::

    python3 perfbench/child.py sweep --base-seeds B0,B1,B2 --work DIR --out OUT.json
        [--seconds S | --passes N] [--trace SPANS.jsonl] [--setup-only]

The child imports the program, builds the configs of its input sets,
opens a store, and prints ``READY`` (the parent times spawn -> ``READY``
as set-up), then the host-speed probe's CPU time on the next line.  It then runs input set 0 once untimed as a warm-up (its
result CSV is digested for the default-seed gate), then timed passes that
cycle through the input sets until ``--seconds`` have been measured and
every set ran (or exactly ``--passes`` of them).  With ``--trace`` the
span recorder is installed after the warm-up, so only timed passes are
traced.  The first run of each input set is gated, and every later pass
of the same inputs must reproduce its result CSV byte for byte; the
result goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import Any, Callable


def _sweep() -> tuple[Callable[[int], Any], Callable[..., Any], Callable[..., Any]]:
    from repro.experiments.fig2 import run_fig2
    from repro.experiments.runner import SweepRunner
    from repro.perf.bench import bench_config

    stock = bench_config(False)

    def config(base_seed: int) -> Any:
        return replace(stock, sweep=replace(stock.sweep, base_seed=base_seed))

    def runner(store: Path, progress: Callable) -> Any:
        # CLI defaults: serial, per-drop solve(), cache on into a fresh columnar store.
        return SweepRunner(
            jobs=1, cache_dir=store, use_cache=True, store_backend="columnar", progress=progress
        )

    return config, runner, run_fig2


def _fl() -> tuple[Callable[[int], Any], Callable[..., Any], Callable[..., Any]]:
    from repro.experiments.flcurve import FLCurveConfig, run_flcurve
    from repro.experiments.runner import SweepRunner
    from repro.perf.bench import fl_dynamic_bench_config

    dynamic = fl_dynamic_bench_config(False)
    stock = FLCurveConfig(
        rounds=12,
        selection="deadline-k",
        profile_modes=("oracle", "estimated"),
        churn=dynamic.churn,
        battery=dynamic.battery,
    )

    def config(base_seed: int) -> Any:
        return replace(stock, sweep=replace(stock.sweep, base_seed=base_seed))

    def runner(store: Path, progress: Callable) -> Any:
        return SweepRunner(jobs=1, cache_dir=store, use_cache=False, progress=progress)

    return config, runner, run_flcurve


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("sweep", "fl"))
    parser.add_argument("--base-seeds", required=True, help="comma-separated base seed of each input set")
    parser.add_argument("--work", required=True, help="scratch directory for stores and CSVs")
    parser.add_argument("--out", help="where to write the result JSON")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", help="write spans of the timed passes here (JSONL)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = Path(args.work)
    config_of, runner_of, run = (_sweep if args.workload == "sweep" else _fl)()
    configs = [config_of(int(seed)) for seed in args.base_seeds.split(",")]
    # Only the current pass's outcomes are kept, so peak RSS does not grow
    # with the number of passes a faster program fits into ``--seconds``.
    outcomes: list[Any] = []
    # A pass is timed as segments, one per operation plus the tail after
    # the last; ``bounds`` holds each segment's start and end.  Between two
    # segments the host-speed probe runs once, untimed (see perfbench.probe).
    bounds: list[float] = []
    probes: list[float] = []

    def progress(done: int, total: int, outcome: Any) -> None:
        bounds.append(perf_counter())
        outcomes.append(outcome)
        probes.append(reference())
        bounds.append(perf_counter())

    runner = runner_of(work / "store-0", progress)
    print("READY", flush=True)
    # The host's speed right after set-up, to scale the set-up time by.
    from perfbench.probe import reference

    print(min(reference() for _ in range(3)), flush=True)
    if args.setup_only:
        return 0

    from perfbench import gates

    def gate(table: Any, solved: list[Any]) -> list[str]:
        if args.workload == "fl":
            return gates.check_fl_table(table)
        return gates.check_sweep_outcomes(solved)

    warmup = run(configs[0], runner=runner)
    warmup_digest = gates.csv_digest(warmup, work / "warmup.csv")
    failures = gate(warmup, outcomes)
    digests = {0: warmup_digest}

    recorder = None
    if args.trace:
        from perfbench.spans import Recorder, install

        recorder = Recorder()
        install(recorder)

    passes: list[dict[str, Any]] = []
    measured = 0.0
    while (
        len(passes) < args.passes
        if args.passes
        else measured < args.seconds or len(passes) < len(configs)
    ):
        index = len(passes)
        input_set = index % len(configs)
        config = configs[input_set]
        runner = runner_of(work / f"store-{index + 1}", progress)
        outcomes.clear()
        bounds.clear()
        probes.clear()
        probes.append(reference())
        started = perf_counter()
        bounds.append(started)
        table = run(config, runner=runner)
        bounds.append(perf_counter())
        probes.append(reference())
        ended = perf_counter()
        done = outcomes
        passes.append(
            {
                "input_set": input_set,
                "wall_s": ended - started,
                "tasks": len(done),
                "failed": sum(not o.ok for o in done),
                "segments_s": [b - a for a, b in zip(bounds[::2], bounds[1::2])],
                # CPU seconds of the probe before each segment and after the last.
                "probes_s": list(probes),
                "rounds": [config.rounds if o.ok else 0 for o in done] if args.workload == "fl" else [],
            }
        )
        measured += ended - started
        digest = gates.csv_digest(table, work / "pass.csv")
        if input_set not in digests:
            digests[input_set] = digest
            failures += gate(table, done)
        elif digest != digests[input_set]:
            failures.append(f"{args.workload}: pass {index} differs from an earlier pass of its inputs")

    if recorder is not None:
        recorder.dump(args.trace)
    result = {"passes": passes, "warmup_csv_sha256": warmup_digest, "gate_failures": failures}
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
