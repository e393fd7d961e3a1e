"""``repro.serve`` — allocation-as-a-service over the sweep engine.

A stdlib-only long-lived HTTP service (``repro serve``) that answers
allocation requests: repeats come straight from the :mod:`repro.store`
result cache, cold requests funnel through a coalescing queue in front of
the sweep engine, whose unit planner groups compatible concurrent requests
into one lockstep
:meth:`~repro.core.allocator.ResourceAllocator.solve_batch` pass.
Responses are bit-identical to a direct per-drop ``solve()`` of the same
task.  See :mod:`repro.serve.server` for the endpoints,
:mod:`repro.serve.schema` for the request format and
:mod:`repro.serve.coalescer` for the batching worker.
"""

from __future__ import annotations

from .coalescer import RequestCoalescer, SolveOutcome
from .schema import parse_request
from .server import AllocationServer, AllocationService, ServeConfig

__all__ = [
    "AllocationServer",
    "AllocationService",
    "RequestCoalescer",
    "ServeConfig",
    "SolveOutcome",
    "parse_request",
]
