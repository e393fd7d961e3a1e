"""HTTP load generator for the ``serve`` workload (standard library only).

One process, at most two concurrent connections (one per thread).  Each
request opens its own connection (``Connection: close``): on a reused
connection the server's separate header and body writes meet the
client's delayed ACK, which adds a ~40 ms timer to some responses and not
to others, depending on how busy the connection is.  That makes latency
bimodal by load, so every request here starts from a fresh connection.

* :func:`open_loop` sends a precomputed Poisson schedule.  Each request is
  timed from when it was *due*, so a stall also charges the requests that
  queued behind it.  The generator's own lateness (a free connection that
  woke up after the due time) is recorded separately.
* :func:`closed_loop` keeps both connections busy with the next body of
  the stream until a deadline: saturation throughput.

Every request carries an ``X-Bench-Id`` header so the traced server's
spans can be joined with the client-side timings.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Response", "request", "open_loop", "closed_loop", "CONNECTIONS"]

#: Connections (and generator threads) per phase: the host has two cores.
CONNECTIONS = 2


@dataclass
class Response:
    """One request as the client saw it (times are ``perf_counter`` seconds)."""

    rid: str
    phase: str
    body: dict[str, Any]
    due: float
    sent: float
    done: float
    status: int
    payload: dict[str, Any] | None
    lag: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300 and self.payload is not None

    @property
    def cached(self) -> bool:
        return bool(self.payload and self.payload.get("cached"))


def request(host: str, port: int, path: str, body: bytes | None = None, rid: str = "") -> tuple[int, bytes]:
    """One request on its own connection: ``GET path``, or ``POST path``
    with a JSON ``body``.  Status 0 on a transport error."""
    conn = http.client.HTTPConnection(host, port, timeout=60.0)
    headers = {"Connection": "close"}
    if body is not None:
        headers.update({"Content-Type": "application/json", "X-Bench-Id": rid})
    try:
        conn.request("GET" if body is None else "POST", path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def _post(host: str, port: int, rid: str, phase: str, body: dict, due: float, lag: float) -> Response:
    data = json.dumps(body).encode("utf-8")
    sent = time.perf_counter()
    status, raw = request(host, port, "/solve", data, rid)
    done = time.perf_counter()
    try:
        payload = json.loads(raw) if raw else None
    except ValueError:
        payload = None
    return Response(rid, phase, body, due, sent, done, status, payload, lag)


def _run_threads(worker: Callable[[], None]) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(host: str, port: int, schedule: Sequence[tuple[float, dict]]) -> list[Response]:
    """Send ``schedule`` (due offsets in seconds) open-loop; responses in due order."""
    results: list[Response | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    start = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, body = schedule[index]
            due = start + offset
            free = time.perf_counter()
            if due > free:
                time.sleep(due - free)
            lag = max(time.perf_counter() - max(due, free), 0.0)
            results[index] = _post(host, port, f"o{index}", "open", body, due, lag)

    _run_threads(worker)
    return [r for r in results if r is not None]


def closed_loop(
    host: str, port: int, bodies: Iterator[dict], duration_s: float
) -> tuple[list[Response], float, float]:
    """Keep every connection busy for ``duration_s``; returns (responses,
    start, end) with ``perf_counter`` stamps."""
    results: list[Response] = []
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    start = time.perf_counter()
    stop = start + duration_s

    def worker() -> None:
        while time.perf_counter() < stop:
            with lock:
                index, body = next(counter), next(bodies)
            now = time.perf_counter()
            response = _post(host, port, f"c{index}", "closed", body, now, 0.0)
            with lock:
                results.append(response)

    _run_threads(worker)
    return results, start, time.perf_counter()
