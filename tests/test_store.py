"""Tests for the result-store backends (``repro.store``).

The JSON backend is the compatibility oracle (the original one-file-per-
task cache layout, unchanged); the columnar backend must serve *exactly*
the same entries from its append-log + packed-segment layout.  The suite
therefore leans on exact equality everywhere: metric key order, int-vs-
float types and solution-state structure all round-trip bit-identically, and
compaction/migration/merge are byte-deterministic on disk.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.store import (
    STORE_BACKENDS,
    ColumnarResultStore,
    JsonResultStore,
    StoreEntry,
    detect_backend,
    merge_stores,
    migrate_store,
    open_store,
    shard_for_digest,
)

DIGESTS = [f"{i:02x}" * 32 for i in range(6)]


def _entry(i: int, *, state: dict | None = "default") -> tuple:
    """A (digest, task, metrics, state) quadruple with mixed value types."""
    if state == "default":
        state = {"power_w": [1.0 * i, 2.0 + i], "mu": 0.5 * i}
    task = {"scenario": {"seed": i}, "solver_kind": "proposed"}
    # Key order is deliberately not sorted and mixes ints with floats.
    metrics = {"objective": 1.5 * i, "iterations": 3 + i, "energy_j": 0.25}
    return DIGESTS[i], task, metrics, state


def _fill(store, indices=range(3), **kwargs):
    for i in indices:
        store.put(*_entry(i, **kwargs))
    store.flush()
    return store


def _tree_bytes(root):
    """Every file under ``root`` with its bytes, as a comparable dict."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# -- round trips, both backends ----------------------------------------------


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_round_trip_preserves_types_and_key_order(tmp_path, backend):
    store = _fill(open_store(tmp_path, backend))
    reader = open_store(tmp_path, backend)
    for i in range(3):
        digest, _task, metrics, state = _entry(i)
        got = reader.get_entry(digest)
        assert got is not None
        got_metrics, got_state = got
        assert got_metrics == metrics
        assert list(got_metrics) == list(metrics)  # insertion order kept
        assert [type(v) for v in got_metrics.values()] == [
            type(v) for v in metrics.values()
        ]
        assert got_state == state
    assert store.get(DIGESTS[0]) == reader.get_entry(DIGESTS[0])[0]
    assert reader.get_entry("ff" * 32) is None


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_none_state_round_trips(tmp_path, backend):
    store = _fill(open_store(tmp_path, backend), indices=[0], state=None)
    assert store.get_entry(DIGESTS[0]) == (_entry(0)[2], None)


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_keys_entries_len_contains_stat(tmp_path, backend):
    store = _fill(open_store(tmp_path, backend))
    assert sorted(store.keys()) == sorted(DIGESTS[:3])
    assert len(store) == 3
    assert DIGESTS[1] in store and "ff" * 32 not in store
    entries = {entry.digest: entry for entry in store.entries()}
    assert set(entries) == set(DIGESTS[:3])
    assert entries[DIGESTS[2]] == StoreEntry(*_entry(2))
    stat = store.stat()
    assert stat.backend == backend
    assert stat.entries == 3
    assert stat.files >= 1
    assert stat.bytes > 0


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_overwrite_keeps_latest(tmp_path, backend):
    store = open_store(tmp_path, backend)
    digest, task, metrics, state = _entry(0)
    store.put(digest, task, metrics, state)
    store.put(digest, task, {"objective": 9.0}, None)
    store.flush()
    assert store.get_entry(digest) == ({"objective": 9.0}, None)
    assert open_store(tmp_path, backend).get_entry(digest) == (
        {"objective": 9.0},
        None,
    )
    assert len(store) == 1


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_metric_columns_and_query(tmp_path, backend):
    store = open_store(tmp_path, backend)
    store.put(DIGESTS[0], {}, {"a": 1.0, "b": 2}, None)
    store.put(DIGESTS[1], {}, {"b": 3.0}, None)
    store.flush()
    assert store.metric_columns() == ["a", "b"]
    rows = store.query(["a", "b"])
    assert rows == sorted(
        [(DIGESTS[0], [1.0, 2]), (DIGESTS[1], [None, 3.0])]
    )
    # Absent columns read as None for every row.
    assert store.query(["missing"]) == sorted(
        [(DIGESTS[0], [None]), (DIGESTS[1], [None])]
    )


def test_columnar_query_matches_json_query(tmp_path):
    json_store = _fill(open_store(tmp_path / "json", "json"))
    columnar = _fill(open_store(tmp_path / "col", "columnar"))
    columnar.compact()
    columns = json_store.metric_columns()
    assert columnar.query(columns) == json_store.query(columns)


# -- construction / detection ------------------------------------------------


def test_open_store_rejects_unknown_backend(tmp_path):
    with pytest.raises(ValueError, match="unknown store backend"):
        open_store(tmp_path, "parquet")


def test_detect_backend_and_auto_open(tmp_path):
    assert detect_backend(tmp_path) is None
    assert open_store(tmp_path).backend == "json"  # default for fresh dirs

    _fill(open_store(tmp_path / "a", "json"))
    assert detect_backend(tmp_path / "a") == "json"
    assert isinstance(open_store(tmp_path / "a"), JsonResultStore)

    _fill(open_store(tmp_path / "b", "columnar"))
    assert detect_backend(tmp_path / "b") == "columnar"
    assert isinstance(open_store(tmp_path / "b"), ColumnarResultStore)
    # Detection works from the log alone and from a compacted manifest alone.
    store = open_store(tmp_path / "b")
    store.compact()
    assert detect_backend(tmp_path / "b") == "columnar"


# -- crash safety (satellite: torn writes are misses, never corruption) ------


@pytest.mark.parametrize("backend", sorted(STORE_BACKENDS))
def test_put_leaves_no_temp_files(tmp_path, backend):
    _fill(open_store(tmp_path, backend))
    leftovers = [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
    assert leftovers == []


def test_json_garbage_entry_is_a_miss(tmp_path):
    store = _fill(open_store(tmp_path, "json"))
    path = store.entry_path(DIGESTS[1])
    path.write_text('{"task": {"truncated...')
    reader = open_store(tmp_path, "json")
    assert reader.get_entry(DIGESTS[1]) is None
    # The neighbours are untouched.
    assert reader.get_entry(DIGESTS[0]) is not None
    assert reader.get_entry(DIGESTS[2]) is not None


def test_columnar_torn_log_line_is_a_miss(tmp_path):
    store = _fill(open_store(tmp_path, "columnar"))
    log = tmp_path / "columnar" / "log.jsonl"
    blob = log.read_bytes()
    log.write_bytes(blob[: len(blob) - 40])  # tear the final record
    reader = open_store(tmp_path, "columnar")
    assert reader.get_entry(DIGESTS[2]) is None
    assert reader.get_entry(DIGESTS[0]) == (_entry(0)[2], _entry(0)[3])
    assert reader.get_entry(DIGESTS[1]) is not None
    # A later put appends cleanly after the torn tail is ignored.
    reader.put(*_entry(2))
    reader.flush()
    assert open_store(tmp_path, "columnar").get_entry(DIGESTS[2]) is not None


def test_columnar_garbage_segment_is_skipped_with_warning(tmp_path):
    store = _fill(open_store(tmp_path, "columnar"))
    store.compact()
    segment = tmp_path / "columnar" / "segments" / "seg-000000.seg"
    segment.write_bytes(b"not a segment at all")
    reader = open_store(tmp_path, "columnar")
    with pytest.warns(RuntimeWarning, match="unreadable segment"):
        assert reader.get_entry(DIGESTS[0]) is None


def test_columnar_log_supersedes_segments(tmp_path):
    store = _fill(open_store(tmp_path, "columnar"))
    store.compact()
    store.put(DIGESTS[0], _entry(0)[1], {"objective": 42.0}, None)
    store.flush()
    reader = open_store(tmp_path, "columnar")
    assert reader.get_entry(DIGESTS[0]) == ({"objective": 42.0}, None)
    assert len(reader) == 3


# -- compaction --------------------------------------------------------------


def test_compaction_preserves_entries_and_truncates_log(tmp_path):
    store = _fill(open_store(tmp_path, "columnar"))
    before = sorted(store.entries(), key=lambda e: e.digest)
    store.compact()
    assert (tmp_path / "columnar" / "log.jsonl").read_bytes() == b""
    manifest = json.loads((tmp_path / "columnar" / "MANIFEST.json").read_text())
    assert manifest["segments"] == ["seg-000000.seg"]
    reader = open_store(tmp_path, "columnar")
    assert sorted(reader.entries(), key=lambda e: e.digest) == before
    assert reader.stat().segments == 1
    assert reader.stat().log_entries == 0


def test_compaction_is_byte_deterministic_across_put_order(tmp_path):
    forward = open_store(tmp_path / "fwd", "columnar")
    for i in range(3):
        forward.put(*_entry(i))
    backward = open_store(tmp_path / "bwd", "columnar")
    for i in reversed(range(3)):
        backward.put(*_entry(i))
    forward.flush(), backward.flush()
    forward.compact(), backward.compact()
    assert _tree_bytes(tmp_path / "fwd") == _tree_bytes(tmp_path / "bwd")


def test_recompaction_is_idempotent_on_bytes(tmp_path):
    store = _fill(open_store(tmp_path, "columnar"))
    store.compact()
    first = _tree_bytes(tmp_path)
    open_store(tmp_path, "columnar").compact()
    assert _tree_bytes(tmp_path) == first


# -- migration (satellite: JSON -> columnar round trip is bit-identical) -----


def test_migrate_json_to_columnar_round_trip_bit_identical(tmp_path):
    source = _fill(open_store(tmp_path / "json", "json"), indices=range(4))
    source.put(*_entry(4, state=None))
    source.flush()

    dest = open_store(tmp_path / "col", "columnar")
    assert migrate_store(source, dest) == 5

    source_entries = sorted(source.entries(), key=lambda e: e.digest)
    dest_entries = sorted(
        open_store(tmp_path / "col", "columnar").entries(),
        key=lambda e: e.digest,
    )
    assert dest_entries == source_entries
    for left, right in zip(source_entries, dest_entries):
        assert left.canonical_blob() == right.canonical_blob()
        assert list(left.metrics) == list(right.metrics)
        assert [type(v) for v in left.metrics.values()] == [
            type(v) for v in right.metrics.values()
        ]

    # And back again: columnar -> JSON reproduces the original tree bytes.
    back = open_store(tmp_path / "back", "json")
    assert migrate_store(dest, back) == 5
    assert _tree_bytes(tmp_path / "back") == _tree_bytes(tmp_path / "json")


def test_migrate_is_deterministic_on_bytes(tmp_path):
    source = _fill(open_store(tmp_path / "json", "json"))
    for target in ("one", "two"):
        migrate_store(source, open_store(tmp_path / target, "columnar"))
    assert _tree_bytes(tmp_path / "one") == _tree_bytes(tmp_path / "two")


# -- merge -------------------------------------------------------------------


def test_merge_unions_shards_independent_of_order(tmp_path):
    shard_a = _fill(open_store(tmp_path / "a", "columnar"), indices=[0, 1])
    shard_b = _fill(open_store(tmp_path / "b", "columnar"), indices=[2, 3])
    shard_c = _fill(open_store(tmp_path / "c", "columnar"), indices=[4])

    assert (
        merge_stores([shard_a, shard_b, shard_c], open_store(tmp_path / "abc", "columnar"))
        == 5
    )
    assert (
        merge_stores([shard_c, shard_b, shard_a], open_store(tmp_path / "cba", "columnar"))
        == 5
    )
    assert _tree_bytes(tmp_path / "abc") == _tree_bytes(tmp_path / "cba")
    merged = open_store(tmp_path / "abc", "columnar")
    assert sorted(merged.keys()) == sorted(DIGESTS[:5])


def test_merge_duplicate_digests_resolve_deterministically(tmp_path):
    # The same digest in two shards (re-executed task): ties break by the
    # smallest canonical blob, not by argument order.
    digest = DIGESTS[0]
    left = open_store(tmp_path / "l", "json")
    left.put(digest, {}, {"objective": 1.0}, None)
    right = open_store(tmp_path / "r", "json")
    right.put(digest, {}, {"objective": 2.0}, None)
    left.flush(), right.flush()

    one = open_store(tmp_path / "m1", "json")
    two = open_store(tmp_path / "m2", "json")
    assert merge_stores([left, right], one) == 1
    assert merge_stores([right, left], two) == 1
    assert one.get_entry(digest) == two.get_entry(digest)
    assert _tree_bytes(tmp_path / "m1") == _tree_bytes(tmp_path / "m2")


def test_merge_across_backends(tmp_path):
    shard_json = _fill(open_store(tmp_path / "j", "json"), indices=[0, 1])
    shard_col = _fill(open_store(tmp_path / "c", "columnar"), indices=[2])
    dest = open_store(tmp_path / "m", "columnar")
    assert merge_stores([shard_json, shard_col], dest) == 3
    assert sorted(dest.keys()) == sorted(DIGESTS[:3])


# -- in-place guard (satellite: merge/migrate must refuse dest == source) ----


def test_migrate_refuses_its_own_source(tmp_path):
    source = _fill(open_store(tmp_path / "s", "json"))
    same = open_store(tmp_path / "s", "json")
    with pytest.raises(ConfigurationError, match="onto itself"):
        migrate_store(source, same)
    # The refused operation must not have touched the source.
    assert sorted(open_store(tmp_path / "s", "json").keys()) == sorted(DIGESTS[:3])


def test_merge_refuses_destination_among_sources(tmp_path):
    shard_a = _fill(open_store(tmp_path / "a", "columnar"), indices=[0])
    shard_b = _fill(open_store(tmp_path / "b", "columnar"), indices=[1])
    dest = open_store(tmp_path / "a", "columnar")
    with pytest.raises(ConfigurationError, match="onto itself"):
        merge_stores([shard_a, shard_b], dest)
    with pytest.raises(ConfigurationError, match="onto itself"):
        merge_stores([shard_b, dest], open_store(tmp_path / "b", "columnar"))


def test_merge_refuses_nested_destination_either_way(tmp_path):
    # dest inside a source root, and a source inside the dest root: both
    # directions share files, both must be refused before any write.
    source = _fill(open_store(tmp_path / "s", "json"), indices=[0])
    with pytest.raises(ConfigurationError, match="overlaps"):
        merge_stores([source], open_store(tmp_path / "s" / "nested", "json"))
    outer = open_store(tmp_path / "out", "json")
    inner = _fill(open_store(tmp_path / "out" / "inner", "json"), indices=[1])
    with pytest.raises(ConfigurationError, match="overlaps"):
        merge_stores([inner], outer)
    with pytest.raises(ConfigurationError, match="overlaps"):
        migrate_store(inner, outer)


def test_merge_relative_and_absolute_roots_still_collide(tmp_path, monkeypatch):
    # The guard compares resolved absolute paths, so spelling the same
    # directory two ways does not slip past it.
    monkeypatch.chdir(tmp_path)
    source = _fill(open_store("store", "json"), indices=[0])
    dest = open_store(tmp_path / "store", "json")
    with pytest.raises(ConfigurationError, match="onto itself"):
        migrate_store(source, dest)


# -- shard partitioning ------------------------------------------------------


def test_shard_for_digest_partitions_and_is_stable():
    digests = [f"{i:064x}" for i in range(64)]
    for count in (1, 2, 3, 7):
        shards = [shard_for_digest(d, count) for d in digests]
        assert all(0 <= s < count for s in shards)
        assert shards == [shard_for_digest(d, count) for d in digests]
    assert all(shard_for_digest(d, 1) == 0 for d in digests)
    # The assignment only reads the digest prefix: equal prefixes co-locate.
    assert shard_for_digest("ab" * 32, 4) == shard_for_digest(
        "ab" * 8 + "ff" * 24, 4
    )


# -- packed solution states --------------------------------------------------


def test_columnar_packs_uniform_states_and_falls_back_on_irregular(tmp_path):
    # Uniform float-only schemas pack into matrices (no per-row state JSON).
    packed = _fill(open_store(tmp_path / "packed", "columnar"))
    packed.compact()
    reader = open_store(tmp_path / "packed", "columnar")
    reader._ensure_loaded()
    assert reader._segments[0].state_packed

    # An int-valued state cannot ride the float matrix without losing its
    # type; the segment must fall back to lossless per-row JSON.
    fallback = open_store(tmp_path / "fallback", "columnar")
    fallback.put(DIGESTS[0], {}, {"m": 1.0}, {"count": 3, "mu": 0.5})
    fallback.put(DIGESTS[1], {}, {"m": 2.0}, {"count": 4, "mu": 1.5})
    fallback.flush()
    fallback.compact()
    reader = open_store(tmp_path / "fallback", "columnar")
    reader._ensure_loaded()
    assert not reader._segments[0].state_packed
    metrics, state = reader.get_entry(DIGESTS[0])
    assert state == {"count": 3, "mu": 0.5}
    assert type(state["count"]) is int
