"""Metric definitions and the span -> per-layer metric reduction.

End-to-end metrics are workload-neutral so every workload reports every
one of them; what one "operation" is depends on the workload:

=========  ==========================  ====================================
workload   ``throughput_per_s``        ``p50_ms`` / ``p90_ms``
=========  ==========================  ====================================
sweep      tasks / summed median       one task (build + solve + store
           repetition of every pass    put), its median repetition
           segment
serve      req/s, median of the two    open-loop requests, timed from when
           closed-loop phases          they were due, each at its median
                                       repetition: p50 over store hits,
                                       p90 over all requests
fl         FL rounds / summed median   one round: an FL run's median
           repetition of every pass    repetition / its rounds
           segment
=========  ==========================  ====================================

Every time, ``setup_s`` included, is scaled to the reference host speed
measured by :mod:`perfbench.probe` around it, except ``serve``'s
``p50_ms``, which is reported as measured (see ``run._serve_untraced``).

Per-layer metrics come from one traced run (see :mod:`perfbench.spans`).
``X.s`` is the inclusive time of the outermost calls into layer ``X``;
``allocator.self_s`` is exclusive of every wrapped callee.  A layer a
workload does not exercise reports 0.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "percentile",
    "layer_metrics",
]

#: (name, unit, better, bound) -- the bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression.
END_TO_END: list[tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
]

#: (name, unit, better, the end-to-end metric it should move and where).
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("cli.import_s", "s", "lower", "setup_s on all three"),
    ("cli.import_scipy_s", "s", "lower", "setup_s on all three"),
    ("scenarios.build_calls", "count", "lower", "throughput_per_s on sweep (small), p90_ms on serve"),
    ("scenarios.build_s", "s", "lower", "throughput_per_s on sweep (small), p90_ms on serve"),
    ("allocator.solve_calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("allocator.batch_calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("allocator.batch_lanes", "count", "higher", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("allocator.outer_iterations", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("allocator.inner_iterations", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("allocator.self_s", "s", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("sp1.calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("sp1.s", "s", "lower", "throughput_per_s on sweep (~9% share) and fl, p90_ms on serve"),
    ("sp2.calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("sp2.s", "s", "lower", "throughput_per_s on sweep (~87% share) and fl, p90_ms on serve"),
    ("solvers.lambert.calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("solvers.lambert.elements", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("solvers.lambert.s", "s", "lower", "throughput_per_s on sweep and fl, p90_ms on serve; not p50_ms on serve"),
    ("solvers.golden.calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("solvers.golden.s", "s", "lower", "throughput_per_s on sweep and fl, p90_ms on serve; not p50_ms on serve"),
    ("solvers.bisection.calls", "count", "lower", "throughput_per_s on sweep and fl, p90_ms on serve"),
    ("solvers.bisection.s", "s", "lower", "throughput_per_s on sweep and fl, p90_ms on serve; not p50_ms on serve"),
    ("baselines.calls", "count", "lower", "throughput_per_s on fl only"),
    ("baselines.s", "s", "lower", "throughput_per_s on fl only"),
    ("runner.tasks", "count", "higher", "throughput_per_s on sweep and fl"),
    ("runner.failed", "count", "lower", "failed/attempted on sweep and fl"),
    ("runner.batches", "count", "lower", "throughput_per_s on sweep and fl"),
    ("runner.dispatch_s", "s", "lower", "throughput_per_s on sweep and fl"),
    ("store.get_calls", "count", "lower", "p50_ms and throughput_per_s on serve"),
    ("store.get_s", "s", "lower", "p50_ms and throughput_per_s on serve"),
    ("store.hit_ratio", "share", "higher", "p50_ms and throughput_per_s on serve"),
    ("store.put_calls", "count", "lower", "throughput_per_s on sweep, p90_ms on serve"),
    ("store.put_s", "s", "lower", "throughput_per_s on sweep, p90_ms on serve"),
    # ResultStore.flush is a no-op for the columnar store today, so this reads ~0.
    ("store.flush_s", "s", "lower", "throughput_per_s on sweep, p90_ms on serve"),
    ("serve.requests", "count", "higher", "throughput_per_s on serve"),
    ("serve.parse_s", "s", "lower", "p50_ms on serve"),
    ("serve.service_s", "s", "lower", "p50_ms and p90_ms on serve"),
    ("serve.http_ms", "ms", "lower", "p50_ms on serve"),
    ("serve.queue_wait_ms", "ms", "lower", "p90_ms and throughput_per_s on serve"),
    ("serve.batches", "count", "lower", "p90_ms and throughput_per_s on serve"),
    ("serve.mean_batch_size", "count", "higher", "p90_ms and throughput_per_s on serve"),
    ("serve.joined", "count", "higher", "p90_ms and throughput_per_s on serve"),
    ("serve.hit_share", "share", "higher", "p50_ms on serve"),
    ("serve.generator_lag_ms", "ms", "lower", "none (load generator health)"),
    ("fl.rounds", "count", "higher", "throughput_per_s on fl"),
    ("fl.allocate_s", "s", "lower", "throughput_per_s and p90_ms on fl only"),
    ("fl.select_s", "s", "lower", "throughput_per_s on fl only"),
    ("fl.train_s", "s", "lower", "throughput_per_s and p50_ms on fl only"),
    ("fl.outer_iterations", "count", "lower", "throughput_per_s on fl only"),
    ("fl.punctures", "count", "lower", "throughput_per_s on fl only"),
    ("trace.overhead_share", "share", "lower", "none (benchmark health: traced / untraced wall - 1)"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); ``inf`` entries sort last."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _median(values: Sequence[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


def layer_metrics(
    spans: Sequence[Sequence[Any]],
    client_latency_s: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Reduce recorded spans to every span-derived per-layer metric.

    ``client_latency_s`` maps a request's ``X-Bench-Id`` to its latency as
    the client measured it (send to response), for ``serve.http_ms``.
    """
    spans = [tuple(s) for s in spans]
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)

    def duration(span: tuple) -> float:
        return span[5] - span[4]

    def outer(layer: str) -> list[tuple]:
        return [s for s in spans if s[2] == layer and not s[6]]

    def total(layer: str) -> float:
        return sum(duration(s) for s in outer(layer))

    def attr_sum(items: Iterable[tuple], key: str) -> float:
        return float(sum((s[7] or {}).get(key, 0) for s in items))

    def ancestor(span: tuple, layer: str) -> tuple | None:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[2] == layer:
                return parent
            parent = by_id.get(parent[1])
        return None

    allocator = outer("allocator")
    batch = [s for s in allocator if s[3].endswith(".solve_batch")]
    runs = outer("runner")
    executions = outer("runner.exec")
    gets = outer("store.get")
    fl_allocator = [s for s in allocator if ancestor(s, "fl") is not None]
    metrics: dict[str, float] = {
        "scenarios.build_calls": float(len(outer("scenarios"))),
        "scenarios.build_s": total("scenarios"),
        "allocator.solve_calls": float(len(allocator) - len(batch)),
        "allocator.batch_calls": float(len(batch)),
        "allocator.batch_lanes": attr_sum(batch, "lanes"),
        "allocator.outer_iterations": attr_sum(allocator, "outer"),
        "allocator.inner_iterations": attr_sum(allocator, "inner"),
        "allocator.self_s": sum(
            duration(s) - sum(duration(c) for c in children[s[0]])
            for s in spans
            if s[2] == "allocator"
        ),
        "sp1.calls": float(len(outer("sp1"))),
        "sp1.s": total("sp1"),
        "sp2.calls": float(len(outer("sp2"))),
        "sp2.s": total("sp2"),
        "solvers.lambert.calls": float(len(outer("solvers.lambert"))),
        "solvers.lambert.elements": attr_sum(outer("solvers.lambert"), "elements"),
        "solvers.lambert.s": total("solvers.lambert"),
        "solvers.golden.calls": float(len(outer("solvers.golden"))),
        "solvers.golden.s": total("solvers.golden"),
        "solvers.bisection.calls": float(len(outer("solvers.bisection"))),
        "solvers.bisection.s": total("solvers.bisection"),
        "baselines.calls": float(len(outer("baselines"))),
        "baselines.s": total("baselines"),
        "runner.tasks": attr_sum(runs, "tasks"),
        "runner.failed": attr_sum(runs, "failed"),
        "runner.batches": attr_sum(runs, "batches"),
        "runner.dispatch_s": sum(duration(s) for s in runs)
        - sum(duration(s) for s in executions if ancestor(s, "runner") is not None),
        "store.get_calls": float(len(gets)),
        "store.get_s": total("store.get"),
        "store.hit_ratio": attr_sum(gets, "hit") / len(gets) if gets else 0.0,
        "store.put_calls": float(len(outer("store.put"))),
        "store.put_s": total("store.put"),
        "store.flush_s": total("store.flush"),
        "fl.rounds": attr_sum(outer("fl"), "rounds"),
        "fl.allocate_s": sum(duration(s) for s in fl_allocator),
        "fl.select_s": total("fl.select"),
        "fl.train_s": total("fl.train"),
        "fl.outer_iterations": attr_sum(fl_allocator, "outer"),
        "fl.punctures": attr_sum(outer("fl"), "punctures"),
    }
    metrics.update(_serve_metrics(spans, children, client_latency_s or {}))
    return metrics


def _serve_metrics(
    spans: list[tuple],
    children: Mapping[int, list[tuple]],
    client_latency_s: Mapping[str, float],
) -> dict[str, float]:
    service = [s for s in spans if s[2] == "serve.service" and not s[6]]
    http_ms = []
    for span in spans:
        if span[2] != "serve.http" or not span[7] or span[7].get("rid") not in client_latency_s:
            continue
        inner = [c for c in children[span[0]] if c[2] == "serve.service"]
        if inner:
            served = inner[0][5] - inner[0][4]
            http_ms.append((client_latency_s[span[7]["rid"]] - served) * 1000.0)

    # Queue wait: RequestCoalescer.submit -> start of the execution that
    # solved the submitted task.  A joined submit is never executed.
    submits: dict[int, list[float]] = defaultdict(list)
    for span in spans:
        if span[2] == "serve.submit" and span[7]:
            submits[span[7]["task_id"]].append(span[4])
    waits, executed, batches = [], 0, 0
    for span in spans:
        if span[2] != "runner.exec" or span[6] or not span[7]:
            continue
        lanes = 0
        for task_id in span[7]["task_ids"]:
            earlier = [t for t in submits.get(task_id, ()) if t <= span[4]]
            if earlier:
                waits.append((span[4] - max(earlier)) * 1000.0)
                lanes += 1
        if lanes:
            batches += 1
            executed += lanes
    submitted = sum(len(times) for times in submits.values())
    return {
        "serve.requests": float(len(service)),
        "serve.parse_s": sum(s[5] - s[4] for s in spans if s[2] == "serve.parse" and not s[6]),
        "serve.service_s": sum(s[5] - s[4] for s in service),
        "serve.http_ms": _median(http_ms),
        "serve.queue_wait_ms": _median(waits),
        "serve.batches": float(batches),
        "serve.mean_batch_size": executed / batches if batches else 0.0,
        "serve.joined": float(submitted - executed),
    }
