"""The proposed algorithm's building blocks, and the wall-clock floors of
its fast paths.

The first tests run each layer of Algorithm 2 once on a 50-device paper
drop and check its answer:

* one full Algorithm-2 solve,
* one Algorithm-1 (sum-of-ratios) solve,
* one closed-form SP2_v2 solve (Theorem 2 / Appendix B),
* one Subproblem-1 solve.

The rest run the quick Figure-2 bench sweep
(:func:`repro.perf.bench.bench_config`), pin its iteration counters
exactly and hold three speedup floors, each next to the parity gate that
makes the fast path worth having:

* the batched multi-solve sweep against the per-drop sweep
  (``>= 2.0 x 0.95``, tables bit-identical);
* the library's multiplier search against the scalar test oracle
  (:func:`tests.mu_search_scalar_reference.scalar_oracle`) on the ``sp2``
  stage (``>= 2.95``, tables bit-identical);
* columnar result-store reads against JSON reads (``>= 1.2 x 0.85``,
  entries bit-identical).

A last floor times ``min_bandwidth_for_rate``, which replays its bisection
from certified brackets, against the frozen blind bisection
(:mod:`tests.min_bandwidth_reference`) on the delay-min final split's
inputs: at least 2x at 12 devices and 0.9x at 80, answers bit-identical.

The three sweep modes run serially with the cache off, five rounds,
interleaved, with the mode order rotated each round, so a load shift on
the host biases every mode of a round alike; each floor is a ratio of
walls summed over the rounds, so one scheduler spike dilutes into the
totals instead of deciding a single short sample.  The 0.95 and 0.85
factors absorb the noise of a wall ratio on a shared machine.
"""

import contextlib
import tempfile
import time

import numpy as np
import pytest

from repro import JointProblem, ProblemWeights, ResourceAllocator, build_paper_scenario
from repro.core.subproblem1 import solve_subproblem1
from repro.core.subproblem2 import solve_sp2_v2
from repro.core.sum_of_ratios import SumOfRatiosSolver
from repro.experiments import run_fig2
from repro.experiments.runner import SweepRunner, task_hash
from repro.perf.bench import bench_config
from repro.core.uplink_delay import minimize_max_upload_time
from repro.scenarios import build_scenario_spec
from repro.store import open_store
from repro.wireless.rate import min_bandwidth_for_rate
from tests.min_bandwidth_reference import min_bandwidth_for_rate_reference
from tests.mu_search_scalar_reference import scalar_oracle


@pytest.fixture(scope="module")
def paper_system():
    return build_paper_scenario(num_devices=50, seed=0)


@pytest.fixture(scope="module")
def start_point(paper_system):
    """A feasible (p, B, nu, beta, r_min) tuple shared by the layer tests."""
    system = paper_system
    n = system.num_devices
    power = system.max_power_w.copy()
    bandwidth = np.full(n, system.total_bandwidth_hz * 0.5 / n)
    rates = system.rates_bps(power, bandwidth)
    upload = system.upload_bits / rates
    compute = system.cycles_per_round / system.max_frequency_hz
    deadline = float(np.max(upload + compute)) * 1.5
    min_rate = system.upload_bits / np.maximum(deadline - compute, 1e-9)
    beta = power * system.upload_bits / rates
    nu = 0.5 * system.global_rounds / rates
    return power, bandwidth, upload, min_rate, nu, beta


def test_bench_full_algorithm2(paper_system):
    problem = JointProblem(paper_system, ProblemWeights(energy=0.5, time=0.5))
    result = ResourceAllocator().solve(problem)
    assert result.feasible


def test_bench_sum_of_ratios(paper_system, start_point):
    power, bandwidth, _, min_rate, _, _ = start_point
    solver = SumOfRatiosSolver(paper_system, 0.5)
    result = solver.solve(min_rate, power, bandwidth)
    assert result.feasible


def test_bench_sp2_closed_form(paper_system, start_point):
    _, _, _, min_rate, nu, beta = start_point
    result = solve_sp2_v2(paper_system, nu, beta, min_rate)
    assert result.feasible


def test_bench_subproblem1(paper_system, start_point):
    _, _, upload, _, _, _ = start_point
    result = solve_subproblem1(paper_system, 0.5, 0.5, upload)
    assert result.round_deadline_s > 0


# -- speedup floors on the quick bench sweep ----------------------------------

#: Timed rounds per sweep mode.
ROUNDS = 5
#: Batch size of the batched mode: divides the quick sweep's 8 tasks.
BATCH_SIZE = 8
#: Timed read passes per store backend (the fastest one counts).
STORE_READ_REPEATS = 5
#: The sweep modes: per drop (``batch_size=1``, so every task carries its
#: stage timings) with the library's search and under the scalar oracle,
#: and batched with the library's search.
MODES = {
    "cold": {"oracle": False, "batch_size": 1},
    "scalar": {"oracle": True, "batch_size": 1},
    "batch": {"oracle": False, "batch_size": BATCH_SIZE},
}


def _run_mode(oracle, batch_size):
    """One serial, uncached quick bench sweep: (table, outcomes, stats)."""
    outcomes = []
    runner = SweepRunner(
        jobs=1,
        use_cache=False,
        progress=lambda done, total, outcome: outcomes.append(outcome),
        batch_size=batch_size,
    )
    with scalar_oracle() if oracle else contextlib.nullcontext():
        table = run_fig2(bench_config(True), runner=runner)
    return table, outcomes, runner.last_stats


@pytest.fixture(scope="module")
def sweep_rounds():
    """Every mode's runs, ``ROUNDS`` each, interleaved with a rotating order."""
    runs = {name: [] for name in MODES}
    items = list(MODES.items())
    for index in range(ROUNDS):
        shift = index % len(items)
        for name, kwargs in items[shift:] + items[:shift]:
            runs[name].append(_run_mode(**kwargs))
    for name, mode_runs in runs.items():
        for _table, _outcomes, stats in mode_runs:
            assert stats.failed == 0, f"{name}: {stats.failed} task(s) failed"
    return runs


def _summed_wall(runs):
    return sum(stats.elapsed_s for _table, _outcomes, stats in runs)


def _summed_stage(runs, name):
    return sum(
        (outcome.timings or {}).get(name, 0.0)
        for _table, outcomes, _stats in runs
        for outcome in outcomes
    )


def test_bench_sweep_iterations_are_pinned(sweep_rounds):
    """Every run of the quick bench sweep (8 drops), with either search, per
    drop or batched, takes exactly 24 Algorithm-2 and 162 Algorithm-1
    iterations."""
    for runs in sweep_rounds.values():
        for _table, outcomes, _stats in runs:
            assert len(outcomes) == 8
            assert sum(o.metrics["iterations"] for o in outcomes) == 24
            assert sum(o.metrics["inner_iterations"] for o in outcomes) == 162


def test_bench_batch_tables_match_per_drop(sweep_rounds):
    """Every timed batched run gives the per-drop table, whole rows and bits."""
    cold, batch = sweep_rounds["cold"], sweep_rounds["batch"]
    reference = cold[0][0].rows
    for table, _outcomes, _stats in cold + batch:
        assert table.rows == reference
    for _table, _outcomes, stats in batch:
        assert stats.batched_tasks == stats.total


def test_bench_batch_wall_speedup(sweep_rounds):
    """Batched multi-solve beats the per-drop sweep."""
    cold, batch = sweep_rounds["cold"], sweep_rounds["batch"]
    speedup = _summed_wall(cold) / max(_summed_wall(batch), 1e-12)
    print(f"\n[batch] per-drop over batched wall: {speedup:.2f}x")
    assert speedup >= 2.0 * 0.95


def test_bench_backend_tables_agree(sweep_rounds):
    """Every timed run under the scalar oracle gives its round's table,
    whole rows and bits."""
    vector, scalar = sweep_rounds["cold"], sweep_rounds["scalar"]
    assert len(scalar) == len(vector) == ROUNDS
    for (scalar_table, _, _), (vector_table, _, _) in zip(scalar, vector):
        assert scalar_table.rows == vector_table.rows


def test_bench_backend_sp2_speedup(sweep_rounds):
    """The library's multiplier search beats the scalar oracle on the SP2 stage."""
    vector, scalar = sweep_rounds["cold"], sweep_rounds["scalar"]
    speedup = _summed_stage(scalar, "sp2") / max(_summed_stage(vector, "sp2"), 1e-12)
    print(f"\n[backend] scalar oracle over library sp2 stage: {speedup:.2f}x")
    assert speedup >= 2.95


def test_bench_store_read_speedup(sweep_rounds):
    """Columnar store reads beat JSON reads, and both serve the same entries.

    Write = put every entry of the per-drop sweep, flush, compact.  A read
    pass is a fresh store instance serving every digest once (the cache-hit
    pattern of a repeated sweep); the fastest of ``STORE_READ_REPEATS``
    passes counts.
    """
    _table, outcomes, _stats = sweep_rounds["cold"][0]
    entries = [(task_hash(o.task), o.task.payload(), o.metrics, o.state) for o in outcomes]
    read_s, read_back = {}, {}
    for backend in ("json", "columnar"):
        with tempfile.TemporaryDirectory(prefix=f"repro-store-{backend}-") as root:
            store = open_store(root, backend)
            for digest, task, metrics, state in entries:
                store.put(digest, task, metrics, state)
            store.flush()
            if backend == "columnar":
                store.compact()
            best = float("inf")
            for _ in range(STORE_READ_REPEATS):
                reader = open_store(root, backend)
                started = time.perf_counter()
                for digest, _task, _metrics, _state in entries:
                    reader.get_entry(digest)
                best = min(best, time.perf_counter() - started)
            read_s[backend] = best
            reader = open_store(root, backend)
            read_back[backend] = [reader.get_entry(digest) for digest, *_ in entries]
    speedup = read_s["json"] / max(read_s["columnar"], 1e-12)
    print(f"\n[store] json over columnar read: {speedup:.2f}x")
    for index, (_digest, _task, metrics, state) in enumerate(entries):
        for backend in ("json", "columnar"):
            served_metrics, served_state = read_back[backend][index]
            assert (served_metrics, served_state) == (metrics, state)
            assert [type(v) for v in served_metrics.values()] == [
                type(v) for v in metrics.values()
            ]
    assert speedup >= 1.2 * 0.85


# -- the certified bandwidth replay against the blind bisection ---------------

#: Timed passes per function, alternating (the fastest of each counts).
REPLAY_REPEATS = 7


def _final_split_calls(num_devices):
    """The delay-min final split's arguments on 8 paper drops: every
    device's target rate at the solve's max upload time."""
    calls = []
    for seed in range(8):
        system = build_scenario_spec({"family": "paper", "num_devices": num_devices, "seed": seed})
        t = minimize_max_upload_time(system).max_upload_time_s
        calls.append((
            (system.upload_bits / t, system.max_power_w, system.gains, system.noise_psd_w_per_hz),
            {"bandwidth_cap_hz": system.total_bandwidth_hz},
        ))
    return calls


@pytest.mark.parametrize(("num_devices", "floor"), [(12, 2.0), (80, 0.9)])
def test_bench_min_bandwidth_replay_speedup(num_devices, floor):
    """The certified replay beats the blind bisection on the same inputs,
    with the same bits."""
    calls = _final_split_calls(num_devices)
    solvers = {"replay": min_bandwidth_for_rate, "bisection": min_bandwidth_for_rate_reference}
    for args, kwargs in calls:
        assert solvers["replay"](*args, **kwargs).tobytes() == (
            solvers["bisection"](*args, **kwargs).tobytes()
        )
    best = dict.fromkeys(solvers, float("inf"))
    for _ in range(REPLAY_REPEATS):
        for name, solve in solvers.items():
            started = time.perf_counter()
            for args, kwargs in calls:
                solve(*args, **kwargs)
            best[name] = min(best[name], time.perf_counter() - started)
    speedup = best["bisection"] / max(best["replay"], 1e-12)
    print(f"\n[replay] bisection over replay at {num_devices} devices: {speedup:.2f}x")
    assert speedup >= floor
