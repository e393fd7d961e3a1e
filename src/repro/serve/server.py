"""``repro serve`` — the long-lived allocation service (HTTP layer).

Allocation-as-a-service: instead of one-shot CLI sweeps, a
:class:`AllocationServer` keeps the allocator, the result store and a
:class:`~repro.serve.coalescer.RequestCoalescer` resident and answers
allocation requests over plain HTTP (``http.server`` + threads — no
dependencies beyond the standard library):

* ``POST /solve`` — body per :mod:`repro.serve.schema`.  The request is
  hashed with the sweep engine's ``task_hash``; a digest already in the
  result store answers immediately (a *cache hit*), a cold one goes
  through the coalescing queue, where concurrent compatible requests
  solve as one lockstep batch.  Either way the response metrics are
  bit-identical to a direct ``solve()`` of the same task, and solved
  results are written back to the store so repeats are hits.
* ``GET /metrics`` — live JSON counters (requests, cache hits, coalesced
  batch sizes, queue depth) plus the aggregated ``repro.perf`` stage
  timings of everything solved so far.
* ``GET /healthz`` — liveness (status + uptime).

The HTTP layer is deliberately thin: :class:`AllocationService` owns all
state and is directly unit-testable; the handler only parses bytes and
maps outcomes to status codes (400 malformed request, 404 unknown path,
413 body over :data:`MAX_BODY_BYTES`, 429 coalescing queue full (see
:data:`~repro.serve.coalescer.MAX_QUEUED`), 500 solver failure, 504 solve
timeout).  Responses go out with ``TCP_NODELAY`` set, so a client that
keeps its connection open is not held up by its own delayed ACK.
Shutdown is graceful — closing the service drains the coalescing queue
(resolving every waiting client) and flushes the store, which is what the
CLI's SIGINT path relies on.
"""

from __future__ import annotations

import json
import threading
import warnings
from concurrent.futures import TimeoutError as _FutureTimeoutError
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..core.allocator import AllocatorConfig
from ..exceptions import ConfigurationError
from ..experiments.runner import default_cache_dir, task_hash
from ..perf.timers import wall_clock
from ..store import ResultStore, open_store
from .coalescer import QueueFullError, RequestCoalescer, SolveOutcome
from .schema import parse_request

__all__ = ["MAX_BODY_BYTES", "ServeConfig", "AllocationService", "AllocationServer"]

#: Largest ``POST /solve`` body read, in bytes; a request declaring more is
#: answered 413 unread (real bodies are a few KB).
MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of one allocation service instance.

    ``store_root`` / ``store_backend`` name the :mod:`repro.store` result
    store that memoises answers (the same stores ``repro run`` caches
    into, so a sweep's cache pre-warms the service and vice versa).
    ``batch_size`` caps the lanes of one coalesced lockstep unit
    (:class:`~repro.serve.coalescer.RequestCoalescer`).
    """

    host: str = "127.0.0.1"
    port: int = 8100
    store_root: str | Path | None = None
    store_backend: str | None = None
    batch_size: int = 8
    request_timeout_s: float = 300.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigurationError(
                f"serve batch_size must be >= 1, got {self.batch_size}"
            )
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"serve request timeout must be positive, got {self.request_timeout_s}"
            )


class AllocationService:
    """The transport-free core: request in, ``(status, payload)`` out."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self._default_allocator = AllocatorConfig()
        root = (
            self.config.store_root
            if self.config.store_root is not None
            else default_cache_dir()
        )
        self.store: ResultStore | None = open_store(root, self.config.store_backend)
        #: One lock serialises every store access: request threads read
        #: concurrently with the worker thread's writes, and the backends
        #: (columnar in particular, with its lazily loaded in-memory index)
        #: make no thread-safety promises of their own.
        self._store_lock = threading.Lock()
        self._lock = threading.Lock()
        self._started = wall_clock()
        self._counters = {
            "total": 0,
            "solve": 0,
            "cache_hits": 0,
            "solved": 0,
            "errors": 0,
            "invalid": 0,
            "rejected": 0,
        }
        self.coalescer = RequestCoalescer(
            batch_size=self.config.batch_size,
            on_outcome=self._store_outcome,
        )
        self._closed = False

    # -- request handling ----------------------------------------------------
    def solve(self, body: Any) -> tuple[int, dict[str, Any]]:
        """Answer one ``POST /solve`` body; returns ``(status, payload)``."""
        self._count("total", "solve")
        try:
            task = parse_request(body, default_allocator=self._default_allocator)
        except ConfigurationError as exc:
            self._count("invalid")
            return 400, {"error": str(exc)}
        digest = task_hash(task)
        cached = self._lookup(digest)
        if cached is not None:
            metrics, _state = cached
            self._count("cache_hits")
            return 200, {"digest": digest, "cached": True, "metrics": metrics}
        try:
            future = self.coalescer.submit(task, digest)
        except QueueFullError as exc:
            self._count("rejected")
            return 429, {"digest": digest, "error": f"service overloaded: {exc}"}
        try:
            outcome: SolveOutcome = future.result(timeout=self.config.request_timeout_s)
        except (TimeoutError, _FutureTimeoutError):
            # concurrent.futures.TimeoutError only became the builtin
            # TimeoutError in Python 3.11; catch both for 3.10.
            self._count("errors")
            return 504, {
                "digest": digest,
                "error": f"solve timed out after {self.config.request_timeout_s:.0f}s",
            }
        if not outcome.ok:
            self._count("errors")
            return 500, {"digest": digest, "error": outcome.error}
        self._count("solved")
        return 200, {
            "digest": digest,
            "cached": False,
            "batch_size": outcome.batch_size,
            "metrics": outcome.metrics,
        }

    def metrics(self) -> dict[str, Any]:
        """The ``GET /metrics`` snapshot: counters, coalescing, timings."""
        with self._lock:
            counters = dict(self._counters)
        payload: dict[str, Any] = {
            "uptime_s": wall_clock() - self._started,
            "requests": counters,
            "coalescing": self.coalescer.snapshot(),
            "timings": dict(self.coalescer.timings.as_dict()),
        }
        if self.store is not None:
            payload["store"] = {
                "backend": self.store.backend,
                "root": str(self.store.root),
            }
        return payload

    def health(self) -> dict[str, Any]:
        """The ``GET /healthz`` payload."""
        return {"status": "ok", "uptime_s": wall_clock() - self._started}

    def close(self) -> None:
        """Drain the coalescing queue and flush the store (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.coalescer.close()
        if self.store is not None:
            with self._store_lock:
                self.store.flush()

    # -- internals -----------------------------------------------------------
    def _count(self, *names: str) -> None:
        with self._lock:
            for name in names:
                self._counters[name] += 1

    def _lookup(self, digest: str) -> tuple[dict[str, float], Any] | None:
        if self.store is None:
            return None
        with self._store_lock:
            return self.store.get_entry(digest)

    def _store_outcome(self, outcome: SolveOutcome) -> None:
        """Coalescer callback: persist one solved result before it resolves."""
        if self.store is None or not outcome.ok:
            return
        assert outcome.metrics is not None
        try:
            with self._store_lock:
                self.store.put(
                    outcome.digest,
                    outcome.task.payload(),
                    outcome.metrics,
                    outcome.state,
                )
        except OSError as exc:
            # Same degradation contract as the sweep runner: a computed
            # result must never be lost to a store problem — serve the
            # response and stop memoising.
            self.store = None
            warnings.warn(
                f"serve: result store disabled (cannot write): {exc}",
                RuntimeWarning,
                stacklevel=2,
            )


class _Handler(BaseHTTPRequestHandler):
    """Thin byte-level adapter between HTTP and :class:`AllocationService`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    #: Headers and body leave as two small writes; with Nagle on, the body
    #: of a keep-alive response waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    @property
    def service(self) -> AllocationService:
        return self.server.service  # type: ignore[attr-defined]

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload, default=float).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self.path != "/solve":
            self._respond(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length <= 0:
            self.service._count("total", "invalid")
            self._respond(400, {"error": "request needs a JSON body (Content-Length)"})
            return
        if length > MAX_BODY_BYTES:
            # The body stays unread, so this connection cannot carry another
            # request.
            self.close_connection = True
            self.service._count("total", "invalid")
            self._respond(413, {"error": f"request body over {MAX_BODY_BYTES} bytes"})
            return
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except ValueError:
            self.service._count("total", "invalid")
            self._respond(400, {"error": "request body is not valid JSON"})
            return
        status, payload = self.service.solve(body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self.path == "/metrics":
            self._respond(200, self.service.metrics())
        elif self.path == "/healthz":
            self._respond(200, self.service.health())
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}"})

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter (metrics cover it)."""


class AllocationServer:
    """A :class:`ThreadingHTTPServer` wrapped around one service instance.

    ``port=0`` binds an ephemeral port (the tests use it); the actual
    address is available as :attr:`address` once constructed.  Use
    :meth:`serve_forever` to run in the calling thread (the CLI path —
    ``KeyboardInterrupt`` falls through to a graceful :meth:`close`) or
    :meth:`start` to serve from a background thread (the test path).
    """

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self.service = AllocationService(self.config)
        self._http = ThreadingHTTPServer(
            (self.config.host, self.config.port), _Handler
        )
        self._http.daemon_threads = True
        self._http.service = self.service  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real one)."""
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Serve in the calling thread until :meth:`shutdown` (or Ctrl-C)."""
        self._http.serve_forever(poll_interval=0.1)

    def start(self) -> "AllocationServer":
        """Serve from a daemon background thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop accepting, drain the coalescer, flush the store (idempotent)."""
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join()
            self._thread = None
        self._http.server_close()
        self.service.close()
