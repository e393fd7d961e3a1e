"""``repro.store`` — pluggable result stores for sweep caching & sharding.

The sweep engine keys every task result by its SHA-256 ``task_hash`` and
hands storage to a :class:`ResultStore` backend:

* ``"json"`` (:class:`JsonResultStore`) — the original one-file-per-task
  layout, kept verbatim as the compatibility oracle;
* ``"columnar"`` (:class:`ColumnarResultStore`) — append log + packed
  numpy segments, one file open per segment instead of per task.

:func:`open_store` is the single construction point (explicit backend or
on-disk auto-detection); :func:`migrate_store` / :func:`merge_stores`
move entries between stores; :func:`shard_for_digest` is the hash
partitioner behind ``repro run --shard I/N``.
"""

from __future__ import annotations

from pathlib import Path

from .base import ResultStore, StoreEntry, StoreStat, shard_for_digest
from .columnar import ColumnarResultStore
from .jsonstore import JsonResultStore
from .ops import merge_stores, migrate_store

__all__ = [
    "ColumnarResultStore",
    "DEFAULT_STORE_BACKEND",
    "JsonResultStore",
    "ResultStore",
    "STORE_BACKENDS",
    "StoreEntry",
    "StoreStat",
    "detect_backend",
    "merge_stores",
    "migrate_store",
    "open_store",
    "shard_for_digest",
]

#: Backend registry: name -> ResultStore subclass.
STORE_BACKENDS: dict[str, type[ResultStore]] = {
    JsonResultStore.backend: JsonResultStore,
    ColumnarResultStore.backend: ColumnarResultStore,
}

DEFAULT_STORE_BACKEND = JsonResultStore.backend


def detect_backend(root: str | Path) -> str | None:
    """The backend already present under ``root``, or ``None`` for neither."""
    root = Path(root)
    columnar = root / "columnar"
    if (columnar / "MANIFEST.json").is_file() or (columnar / "log.jsonl").is_file():
        return ColumnarResultStore.backend
    if (root / "sweeps").is_dir():
        return JsonResultStore.backend
    return None


def open_store(root: str | Path, backend: str | None = None) -> ResultStore:
    """Open (or prepare to create) the result store under ``root``.

    With ``backend=None`` the on-disk layout decides (so pre-existing cache
    directories keep working untouched), falling back to
    :data:`DEFAULT_STORE_BACKEND` for a fresh directory.
    """
    if backend is None:
        backend = detect_backend(root) or DEFAULT_STORE_BACKEND
    try:
        cls = STORE_BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(STORE_BACKENDS))
        raise ValueError(f"unknown store backend {backend!r} (known: {known})") from None
    return cls(root)
