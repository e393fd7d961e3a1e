"""Tests for hash-sharded sweep execution (``repro run --shard I/N``).

The contract under test: partitioning a sweep's tasks across N shards by
``shard_for_digest(task_hash(task), N)``, running each shard into its own
result store, and merging the shard stores reproduces the serial run
*bit-for-bit* — same store bytes, same exported CSV — regardless of shard
count, shard order, or how unevenly the hash partition lands.
"""

from __future__ import annotations

import pytest

from repro.core.allocator import AllocatorConfig
from repro.exceptions import ConfigurationError
from repro.experiments import SweepConfig, SweepRunner, parse_shard, task_hash
from repro.experiments.base import proposed_tasks
from repro.store import merge_stores, open_store, shard_for_digest

TINY_SWEEP = SweepConfig(
    num_devices=4, num_trials=3, allocator=AllocatorConfig(max_iterations=4)
)


def _tasks(weight: float = 0.5):
    return proposed_tasks(("p",), TINY_SWEEP, weight)


def _tree_bytes(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# -- parse_shard -------------------------------------------------------------


def test_parse_shard_accepts_specs_and_normalises_trivial():
    assert parse_shard(None) is None
    assert parse_shard("0/1") is None  # one shard selects everything
    assert parse_shard((0, 1)) is None
    assert parse_shard("1/4") == (1, 4)
    assert parse_shard((2, 3)) == (2, 3)


@pytest.mark.parametrize("spec", ["", "3", "a/b", "1/0", "4/4", "-1/2", "2/-2"])
def test_parse_shard_rejects_malformed_specs(spec):
    with pytest.raises(ConfigurationError):
        parse_shard(spec)


# -- runner integration ------------------------------------------------------


def test_sharded_runs_union_to_the_serial_outcome_set(tmp_path):
    tasks = _tasks()
    serial = SweepRunner(jobs=1, use_cache=False).run(tasks)
    count = 2
    by_key: dict = {}
    skipped_total = 0
    for index in range(count):
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / f"shard{index}",
            use_cache=True,
            store_backend="columnar",
            shard=(index, count),
        )
        outcomes = runner.run(tasks)
        assert len(outcomes) == len(tasks)  # skipped tasks keep their slot
        executed = [o for o in outcomes if not o.skipped]
        skipped_total += runner.last_stats.skipped
        assert runner.last_stats.skipped == len(tasks) - len(executed)
        assert runner.last_stats.store_backend == "columnar"
        for outcome in executed:
            assert (
                shard_for_digest(task_hash(outcome.task), count) == index
            )
            by_key[task_hash(outcome.task)] = outcome.metrics
    # Every task ran in exactly one shard, and skips mirror that partition.
    assert len(by_key) == len(tasks)
    assert skipped_total == len(tasks) * (count - 1)
    for outcome in serial:
        assert by_key[task_hash(outcome.task)] == outcome.metrics


def test_skipped_tasks_are_not_failures_and_not_cached(tmp_path):
    tasks = _tasks()
    # Pick the smallest shard count that actually splits the tasks (the
    # hash partition moves whenever the cache-key schema does), then run
    # one non-empty shard so the sweep both executes and skips.
    count = next(
        n
        for n in range(2, len(tasks) + 2)
        if len({shard_for_digest(task_hash(t), n) for t in tasks}) > 1
    )
    index = shard_for_digest(task_hash(tasks[0]), count)
    runner = SweepRunner(
        jobs=1,
        cache_dir=tmp_path,
        use_cache=True,
        store_backend="columnar",
        shard=(index, count),
    )
    outcomes = runner.run(tasks)
    skipped = [o for o in outcomes if o.skipped]
    assert skipped and all(o.metrics is None and o.error is None for o in skipped)
    assert runner.last_stats.failed == 0
    # Only this shard's tasks landed in the store.
    store = open_store(tmp_path, "columnar")
    assert len(store) == len(tasks) - len(skipped)


def test_empty_shard_executes_nothing(tmp_path):
    tasks = _tasks()
    count = len(tasks) * 4  # more shards than tasks: some must be empty
    assignments = {shard_for_digest(task_hash(t), count) for t in tasks}
    empty = next(i for i in range(count) if i not in assignments)
    runner = SweepRunner(
        jobs=1, cache_dir=tmp_path, use_cache=True, shard=(empty, count)
    )
    outcomes = runner.run(tasks)
    assert all(o.skipped for o in outcomes)
    assert runner.last_stats.skipped == len(tasks)
    assert runner.last_stats.executed == 0
    assert len(open_store(tmp_path)) == 0


def test_more_shards_than_tasks_still_covers_every_task(tmp_path):
    tasks = _tasks()
    count = len(tasks) + 5
    executed_keys = []
    for index in range(count):
        runner = SweepRunner(jobs=1, use_cache=False, shard=(index, count))
        outcomes = runner.run(tasks)
        executed_keys.extend(
            task_hash(o.task) for o in outcomes if not o.skipped
        )
    assert sorted(executed_keys) == sorted(task_hash(t) for t in tasks)


def test_duplicate_digests_co_locate_in_one_shard():
    # The same logical task listed twice has one digest, so both copies land
    # in the same shard — a duplicate can never straddle the partition.
    tasks = _tasks() + _tasks()
    count = 3
    for task in tasks:
        digest = task_hash(task)
        shards = {shard_for_digest(digest, count)}
        assert len(shards) == 1


def test_merged_shard_stores_equal_the_serial_store_bit_for_bit(tmp_path):
    tasks = _tasks()
    serial_runner = SweepRunner(
        jobs=1,
        cache_dir=tmp_path / "serial",
        use_cache=True,
        store_backend="columnar",
    )
    serial_runner.run(tasks)
    serial_store = open_store(tmp_path / "serial", "columnar")
    serial_store.compact()

    count = 3
    shards = []
    for index in range(count):
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / f"shard{index}",
            use_cache=True,
            store_backend="columnar",
            shard=(index, count),
        )
        runner.run(tasks)
        shards.append(open_store(tmp_path / f"shard{index}", "columnar"))

    merge_stores(shards, open_store(tmp_path / "fwd", "columnar"))
    merge_stores(list(reversed(shards)), open_store(tmp_path / "rev", "columnar"))
    assert _tree_bytes(tmp_path / "fwd") == _tree_bytes(tmp_path / "rev")
    assert _tree_bytes(tmp_path / "fwd") == _tree_bytes(tmp_path / "serial")


def test_merged_store_serves_a_cached_rerun(tmp_path):
    tasks = _tasks()
    count = 2
    shards = []
    for index in range(count):
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / f"shard{index}",
            use_cache=True,
            store_backend="columnar",
            shard=(index, count),
        )
        runner.run(tasks)
        shards.append(open_store(tmp_path / f"shard{index}", "columnar"))
    merge_stores(shards, open_store(tmp_path / "merged", "columnar"))

    rerun = SweepRunner(jobs=1, cache_dir=tmp_path / "merged", use_cache=True)
    outcomes = rerun.run(tasks)
    assert rerun.last_stats.cache_hits == len(tasks)
    assert rerun.last_stats.executed == 0
    assert all(o.cached for o in outcomes)


def test_result_table_csv_identical_across_store_backends(tmp_path):
    # The store backend is pure addressing: a sweep served from a columnar
    # cache must export byte-identical CSV to one served from the JSON
    # oracle (and to the uncached run).
    from repro.experiments import SamplesConfig, run_samples_sweep

    config = SamplesConfig(sweep=TINY_SWEEP)
    paths = {}
    for backend in ("json", "columnar"):
        runner = SweepRunner(
            jobs=1,
            cache_dir=tmp_path / backend,
            use_cache=True,
            store_backend=backend,
        )
        run_samples_sweep(config, runner=runner)  # populate the cache
        table = run_samples_sweep(config, runner=runner)  # then serve from it
        assert runner.last_stats.cache_hits == runner.last_stats.total
        paths[backend] = tmp_path / f"{backend}.csv"
        table.to_csv(paths[backend])
    uncached = run_samples_sweep(config, runner=SweepRunner(jobs=1, use_cache=False))
    uncached.to_csv(tmp_path / "uncached.csv")
    assert paths["json"].read_bytes() == paths["columnar"].read_bytes()
    assert paths["json"].read_bytes() == (tmp_path / "uncached.csv").read_bytes()
