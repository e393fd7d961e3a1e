"""The columnar result store: append log + packed-numpy segments.

The JSON backend pays one ``open()`` + ``json.loads`` per task — O(files)
I/O that dominates cache-hit reads at paper scale.  This backend keeps the
same logical contract (digest-keyed ``(task, metrics, state)`` entries,
bit-identical round-trips) on a two-tier layout::

    <root>/columnar/
      MANIFEST.json            # {"format": 1, "segments": ["seg-000000.seg"]}
      log.jsonl                # append log: one JSON record per line
      segments/seg-000000.seg  # packed columnar segment (flat numpy container)

* **Writes** append one self-contained JSON line to ``log.jsonl`` — an
  O(1) durable append with no rename dance per entry.  A crash can only
  truncate the *last* line; the reader skips unparsable lines, so the
  half-written record reads as a miss and every earlier entry survives.
* **Compaction** (:meth:`ColumnarResultStore.compact`) folds the log and
  any existing segments into one packed segment: metric values as one
  ``float64`` matrix over the sorted column union (with presence/int
  masks, so ``3`` and ``3.0`` round-trip distinguishably and bit-exactly),
  digests/states/payloads as string arrays, per-record key order preserved
  through an offsets array.  Entries are sorted by digest and the segment
  container is a pure function of its arrays, so stores with equal logical
  content compact to **byte-identical** files — that is what makes the
  N-shard merge-equals-serial gate checkable with ``cmp``.
* **Reads** load each segment once into an in-memory index and serve every
  ``get_entry`` from arrays — one file open per segment instead of one per
  task, which is the whole point.
* **Queries** (:meth:`ColumnarResultStore.query`) slice metric columns
  straight out of the packed matrices, so cross-experiment column scans
  never materialise per-task dicts.

The segment container is deliberately *not* ``.npz``: the zip layer costs
~1 ms per open (directory walk, per-member decompress) — more than an
entire small sweep's JSON reads, which would bury the backend's win at
bench scale.  A segment is instead one flat file: a magic line, a
fixed-width header length, a canonical JSON header describing each
array's dtype/shape/offset, then the arrays' raw C-order bytes
back-to-back.  One ``read()`` plus ``np.frombuffer`` slices loads
everything, and the bytes are trivially deterministic (no timestamps, no
compressor versions).

Entry *addressing* never leaves the digest: rows are keyed by the digest
string alone (RL007 guards the path-building helpers), and cache keys /
``CACHE_VERSION`` semantics are untouched — the store is storage, not
hashing.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from .base import ResultStore, StoreEntry, StoreStat

__all__ = ["ColumnarResultStore"]

#: On-disk format version of segments + manifest (bump on layout changes).
COLUMNAR_FORMAT = 1

_MANIFEST = "MANIFEST.json"
_LOG = "log.jsonl"
_SEGMENT_DIR = "segments"

#: First bytes of every segment file (versioned with the container layout).
_SEGMENT_MAGIC = b"REPROSEG1\n"


def _write_segment(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write the flat segment container (byte-deterministic by construction).

    Layout: magic line, 16-digit ASCII header length, canonical JSON header
    (name -> dtype descriptor, shape, byte offset and length, in sorted
    name order), then each array's raw C-order bytes concatenated in that
    same order.
    """
    blobs: list[bytes] = []
    header: dict[str, Any] = {}
    offset = 0
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        blob = array.tobytes()
        header[name] = {
            "dtype": np.lib.format.dtype_to_descr(array.dtype),
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(blob),
        }
        blobs.append(blob)
        offset += len(blob)
    header_blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(
        [_SEGMENT_MAGIC, b"%016d\n" % len(header_blob), header_blob, *blobs]
    )
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _read_segment(path: Path) -> dict[str, np.ndarray]:
    """Load a segment container in one read; raises ValueError on garbage."""
    blob = path.read_bytes()
    if not blob.startswith(_SEGMENT_MAGIC):
        raise ValueError(f"not a segment file: {path}")
    prefix = len(_SEGMENT_MAGIC)
    header_len = int(blob[prefix : prefix + 16])
    body = prefix + 17  # past the 16 digits and their newline
    header = json.loads(blob[body : body + header_len])
    base = body + header_len
    arrays: dict[str, np.ndarray] = {}
    for name, spec in header.items():
        start = base + int(spec["offset"])
        raw = blob[start : start + int(spec["nbytes"])]
        arrays[name] = np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
            spec["shape"]
        )
    return arrays


def _string_array(values: list[str]) -> np.ndarray:
    """A unicode array that tolerates the all-empty and empty-list cases."""
    return np.asarray(values, dtype=np.str_) if values else np.zeros(0, dtype="U1")


class _Segment:
    """One loaded packed segment: arrays plus a digest -> row map.

    The hot per-``get_entry`` structures (metric values, key order, packed
    states) are converted to plain Python lists once at load time, so a
    cache-hit read is dict assembly over lists — no per-get numpy scalar
    boxing, no per-get JSON parsing when states are packed.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        digests = [str(d) for d in arrays["digests"].tolist()]
        self.columns = [str(c) for c in arrays["columns"].tolist()]
        self.values = arrays["values"]
        self.present = arrays["present"]
        self.int_mask = arrays["int_mask"]
        self._values_list = self.values.tolist()
        self._int_list = self.int_mask.tolist()
        self._order = arrays["order_flat"].tolist()
        self._offsets = arrays["order_offsets"].tolist()
        self.task_json = arrays["task_json"]
        self.state_packed = bool(arrays["state_packed"][0])
        if self.state_packed:
            self._state_keys = [str(k) for k in arrays["state_keys"].tolist()]
            self._state_kinds = arrays["state_kinds"].tolist()
            self._state_present = arrays["state_present"].tolist()
            self._state_values = arrays["state_values"].tolist()
            self.state_json = None
        else:
            self.state_json = arrays["state_json"]
        self.rows = {digest: row for row, digest in enumerate(digests)}
        self._digests = digests

    def __len__(self) -> int:
        return len(self._digests)

    def digest_of(self, row: int) -> str:
        return self._digests[row]

    def metrics_of(self, row: int) -> dict[str, float]:
        """Rebuild row ``row``'s metrics dict in its original key order."""
        row_values = self._values_list[row]
        row_ints = self._int_list[row]
        metrics: dict[str, float] = {}
        for j in self._order[self._offsets[row] : self._offsets[row + 1]]:
            value = row_values[j]
            metrics[self.columns[j]] = int(value) if row_ints[j] else value
        return metrics

    def state_of(self, row: int) -> dict[str, Any] | None:
        if self.state_packed:
            if not self._state_present[row]:
                return None
            row_values = self._state_values[row]
            state: dict[str, Any] = {}
            position = 0
            for key, kind in zip(self._state_keys, self._state_kinds):
                if kind == 0:
                    state[key] = row_values[position]
                    position += 1
                else:
                    state[key] = row_values[position : position + kind]
                    position += kind
            return state
        blob = str(self.state_json[row])
        return json.loads(blob) if blob else None

    def task_of(self, row: int) -> dict[str, Any]:
        blob = str(self.task_json[row])
        return json.loads(blob) if blob else {}

    def entry(self, row: int) -> StoreEntry:
        return StoreEntry(
            digest=self._digests[row],
            task=self.task_of(row),
            metrics=self.metrics_of(row),
            state=self.state_of(row),
        )


def _pack_states(
    states: list[dict[str, Any] | None],
) -> dict[str, np.ndarray] | None:
    """Pack uniform-schema states into float matrices, or ``None`` to fall
    back to per-row JSON.

    Packable means: every non-``None`` state has the same keys in the same
    order, and each key's value is a plain float (or a non-empty list of
    plain floats with one length across all rows).  The runner's solution-state
    snapshots (``power_w`` / ``bandwidth_hz`` / ``frequency_hz`` lists plus
    the ``mu`` scalar) fit exactly; anything irregular — including ints,
    whose JSON round-trip the float matrix could not preserve — keeps the
    lossless JSON path.
    """
    keys: tuple[str, ...] | None = None
    kinds: dict[str, int] = {}
    for state in states:
        if state is None:
            continue
        state_keys = tuple(state.keys())
        if keys is None:
            keys = state_keys
        elif state_keys != keys:
            return None
        for key in state_keys:
            value = state[key]
            if type(value) is float:
                kind = 0
            elif (
                isinstance(value, list)
                and value
                and all(type(item) is float for item in value)
            ):
                kind = len(value)
            else:
                return None
            if kinds.setdefault(key, kind) != kind:
                return None
    keys = keys or ()
    width = sum(1 if kinds[key] == 0 else kinds[key] for key in keys)
    n = len(states)
    present = np.zeros(n, dtype=bool)
    values = np.zeros((n, width), dtype=np.float64)
    for row, state in enumerate(states):
        if state is None:
            continue
        present[row] = True
        position = 0
        for key in keys:
            kind = kinds[key]
            if kind == 0:
                values[row, position] = state[key]
                position += 1
            else:
                values[row, position : position + kind] = state[key]
                position += kind
    return {
        "state_packed": np.asarray([1], dtype=np.int64),
        "state_keys": _string_array(list(keys)),
        "state_kinds": np.asarray([kinds[key] for key in keys], dtype=np.int64),
        "state_present": present,
        "state_values": values,
    }


def _pack(entries: list[StoreEntry]) -> dict[str, np.ndarray]:
    """Pack ``entries`` (already digest-sorted) into segment arrays."""
    columns = sorted({name for entry in entries for name in entry.metrics})
    column_index = {name: i for i, name in enumerate(columns)}
    n, c = len(entries), len(columns)
    values = np.zeros((n, c), dtype=np.float64)
    present = np.zeros((n, c), dtype=bool)
    int_mask = np.zeros((n, c), dtype=bool)
    order_flat: list[int] = []
    order_offsets = np.zeros(n + 1, dtype=np.int64)
    for row, entry in enumerate(entries):
        for name, value in entry.metrics.items():
            j = column_index[name]
            values[row, j] = float(value)
            present[row, j] = True
            int_mask[row, j] = isinstance(value, int)
            order_flat.append(j)
        order_offsets[row + 1] = len(order_flat)
    arrays = {
        "format": np.asarray([COLUMNAR_FORMAT], dtype=np.int64),
        "digests": _string_array([entry.digest for entry in entries]),
        "columns": _string_array(columns),
        "values": values,
        "present": present,
        "int_mask": int_mask,
        "order_flat": np.asarray(order_flat, dtype=np.int64),
        "order_offsets": order_offsets,
        "task_json": _string_array(
            [json.dumps(entry.task, separators=(",", ":")) for entry in entries]
        ),
    }
    packed_states = _pack_states([entry.state for entry in entries])
    if packed_states is not None:
        arrays.update(packed_states)
    else:
        arrays["state_packed"] = np.asarray([0], dtype=np.int64)
        arrays["state_json"] = _string_array(
            [
                json.dumps(entry.state, separators=(",", ":"))
                if entry.state is not None
                else ""
                for entry in entries
            ]
        )
    return arrays


class ColumnarResultStore(ResultStore):
    """Append-log + packed-segment result store; see the module docstring."""

    backend = "columnar"

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)
        self._segments: list[_Segment] | None = None
        #: Entries living in the log (or appended this process), newest wins.
        self._log_index: dict[str, StoreEntry] = {}

    # -- paths (digest-independent: rows are addressed in arrays) ------------
    @property
    def _dir(self) -> Path:
        return self.root / "columnar"

    def _manifest_path(self) -> Path:
        return self._dir / _MANIFEST

    def _log_path(self) -> Path:
        return self._dir / _LOG

    def _segment_path(self, name: str) -> Path:
        return self._dir / _SEGMENT_DIR / name

    # -- loading -------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._segments is not None:
            return
        self._segments = []
        self._log_index = {}
        for name in self._manifest_segments():
            path = self._segment_path(name)
            try:
                segment = _Segment(_read_segment(path))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                warnings.warn(
                    f"columnar store: skipping unreadable segment {path}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            self._segments.append(segment)
        for entry in self._read_log():
            self._log_index[entry.digest] = entry

    def _manifest_segments(self) -> list[str]:
        try:
            manifest = json.loads(self._manifest_path().read_text())
        except (OSError, ValueError):
            return []
        segments = manifest.get("segments") if isinstance(manifest, dict) else None
        return [str(name) for name in segments] if isinstance(segments, list) else []

    def _read_log(self) -> Iterator[StoreEntry]:
        """Replay the append log, skipping truncated or garbage lines."""
        try:
            lines = self._log_path().read_text().splitlines()
        except OSError:
            return
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a crash-truncated (or corrupt) record is a miss
            if not isinstance(record, dict):
                continue
            digest = record.get("digest")
            metrics = record.get("metrics")
            if not isinstance(digest, str) or not isinstance(metrics, dict):
                continue
            state = record.get("state")
            yield StoreEntry(
                digest=digest,
                task=dict(record.get("task") or {}),
                metrics=dict(metrics),
                state=dict(state) if isinstance(state, dict) else None,
            )

    # -- reads ---------------------------------------------------------------
    def get_entry(
        self, digest: str
    ) -> tuple[dict[str, float], dict[str, Any] | None] | None:
        self._ensure_loaded()
        entry = self._log_index.get(digest)
        if entry is not None:
            return dict(entry.metrics), (
                dict(entry.state) if entry.state is not None else None
            )
        assert self._segments is not None
        for segment in reversed(self._segments):
            row = segment.rows.get(digest)
            if row is not None:
                return segment.metrics_of(row), segment.state_of(row)
        return None

    def keys(self) -> Iterator[str]:
        self._ensure_loaded()
        assert self._segments is not None
        seen = set(self._log_index)
        yield from self._log_index
        for segment in self._segments:
            for digest in segment.rows:
                if digest not in seen:
                    seen.add(digest)
                    yield digest

    def entries(self) -> Iterator[StoreEntry]:
        self._ensure_loaded()
        assert self._segments is not None
        yield from self._log_index.values()
        for segment in self._segments:
            for digest, row in segment.rows.items():
                if digest not in self._log_index:
                    yield segment.entry(row)

    # -- writes --------------------------------------------------------------
    def put(
        self,
        digest: str,
        task: Mapping[str, Any],
        metrics: Mapping[str, float],
        state: Mapping[str, Any] | None = None,
    ) -> None:
        self._ensure_loaded()
        entry = StoreEntry(
            digest=digest,
            task=dict(task),
            metrics=dict(metrics),
            state=dict(state) if state is not None else None,
        )
        record = {
            "digest": entry.digest,
            "task": entry.task,
            "metrics": entry.metrics,
            "state": entry.state,
        }
        self._dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":"), default=float) + "\n"
        # One whole-line append per entry: a crash mid-write can only leave
        # a truncated *last* line, which the reader skips (see _read_log).
        # If a previous crash left such a torn tail, start on a fresh line so
        # the new record does not concatenate onto the garbage.
        with self._log_path().open("a+b") as handle:
            handle.seek(0, 2)
            if handle.tell() > 0:
                handle.seek(-1, 2)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8"))
        self._log_index[digest] = entry

    # -- compaction ----------------------------------------------------------
    def compact(self) -> int:
        """Fold log + segments into one canonical packed segment.

        Entries are sorted by digest and written with fixed zip timestamps,
        so any two stores holding the same logical content compact to
        byte-identical trees.  Returns the number of entries packed.

        The sequencing is crash-safe: the new segment lands first (atomic
        rename), then the manifest, then the log truncation — a crash
        between any two steps leaves a store whose replay (segments then
        log, digest-deduplicated) still reads every entry exactly once.
        """
        self._ensure_loaded()
        entries = sorted(self.entries(), key=lambda entry: entry.digest)
        segment_dir = self._dir / _SEGMENT_DIR
        segment_dir.mkdir(parents=True, exist_ok=True)
        name = "seg-000000.seg"
        _write_segment(self._segment_path(name), _pack(entries))
        manifest = {"format": COLUMNAR_FORMAT, "segments": [name]}
        manifest_tmp = self._manifest_path().with_suffix(f".{os.getpid()}.tmp")
        manifest_tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(manifest_tmp, self._manifest_path())
        log_tmp = self._log_path().with_suffix(f".{os.getpid()}.tmp")
        log_tmp.write_text("")
        os.replace(log_tmp, self._log_path())
        for stale in segment_dir.glob("seg-*.seg"):
            if stale.name != name:
                stale.unlink()
        self._segments = None  # reload from the packed layout on next read
        self._log_index = {}
        return len(entries)

    # -- inspection ----------------------------------------------------------
    def stat(self) -> StoreStat:
        self._ensure_loaded()
        assert self._segments is not None
        files = 0
        size = 0
        for path in (self._manifest_path(), self._log_path()):
            if path.is_file():
                files += 1
                size += path.stat().st_size
        segment_dir = self._dir / _SEGMENT_DIR
        if segment_dir.is_dir():
            for path in segment_dir.glob("seg-*.seg"):
                files += 1
                size += path.stat().st_size
        return StoreStat(
            backend=self.backend,
            root=str(self.root),
            entries=len(self),
            files=files,
            bytes=size,
            segments=len(self._segments),
            log_entries=len(self._log_index),
        )

    def metric_columns(self) -> list[str]:
        self._ensure_loaded()
        assert self._segments is not None
        names: set[str] = set()
        for segment in self._segments:
            names.update(segment.columns)
        for entry in self._log_index.values():
            names.update(entry.metrics)
        return sorted(names)

    def query(self, columns: list[str]) -> list[tuple[str, list[float | None]]]:
        """Vectorised column extraction straight from the packed matrices."""
        self._ensure_loaded()
        assert self._segments is not None
        rows: dict[str, list[float | None]] = {}
        for segment in self._segments:
            indices = [
                segment.columns.index(name) if name in segment.columns else None
                for name in columns
            ]
            for j in range(len(segment)):
                digest = segment.digest_of(j)
                if digest in self._log_index:
                    continue  # the log supersedes packed rows
                values: list[float | None] = []
                for index in indices:
                    if index is None or not segment.present[j, index]:
                        values.append(None)
                    else:
                        value = float(segment.values[j, index])
                        values.append(
                            int(value) if segment.int_mask[j, index] else value
                        )
                rows[digest] = values
        for digest, entry in self._log_index.items():
            rows[digest] = [entry.metrics.get(name) for name in columns]
        return sorted(rows.items())
