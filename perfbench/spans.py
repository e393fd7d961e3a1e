"""Span recorder for the traced benchmark run.

The recorder measures each layer of the program *from outside*: it wraps
the public functions of the layer modules (the names in each module's
``__all__``) and a few public methods, and records one span per call with
its parent span, start and end.  A wrapped function is re-bound everywhere
it was imported by name (``from .lambert import lambert_solve_rows``) and
in module-level registries (``BASELINES``), so every call path goes
through the wrapper.

Spans are kept in memory and written as JSONL when the run ends.  Metrics
are keyed by *layer*, never by function, so they survive the deletion or
renaming of individual kernels.  A call into a layer from inside the same
layer is recorded as ``nested``: layer call counts and inclusive times use
only the outermost spans, self time uses every span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["LAYERS", "Recorder", "install", "load_spans"]

Hook = Callable[[tuple, dict, Any], "dict[str, Any] | None"]


def _lambert_elements(args: tuple, kwargs: dict, _result: Any) -> dict[str, Any]:
    rhs = args[0] if args else kwargs.get("rhs")
    return {"elements": int(getattr(rhs, "size", 1))}


def _allocator_solve(_args: tuple, _kwargs: dict, result: Any) -> dict[str, Any]:
    return {"lanes": 1, "outer": int(result.iterations), "inner": int(result.inner_iterations)}


def _allocator_batch(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    solved = [r for r in result if not isinstance(r, BaseException)]
    return {
        "lanes": len(result),
        "outer": sum(int(r.iterations) for r in solved),
        "inner": sum(int(r.inner_iterations) for r in solved),
    }


def _store_get(_args: tuple, _kwargs: dict, result: Any) -> dict[str, Any]:
    return {"hit": result is not None}


def _runner_run(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    stats = args[0].last_stats
    return {"tasks": stats.total, "failed": stats.failed, "batches": stats.batches}


def _exec_one(args: tuple, kwargs: dict, _result: Any) -> dict[str, Any]:
    task = args[0] if args else kwargs["task"]
    return {"task_ids": [id(task)]}


def _exec_batch(args: tuple, kwargs: dict, _result: Any) -> dict[str, Any]:
    tasks = args[0] if args else kwargs["tasks"]
    return {"task_ids": [id(task) for task in tasks]}


def _submit(args: tuple, kwargs: dict, _result: Any) -> dict[str, Any]:
    task = args[1] if len(args) > 1 else kwargs["task"]
    return {"task_id": id(task)}


def _http_request(args: tuple, _kwargs: dict, _result: Any) -> dict[str, Any]:
    return {"rid": args[0].headers.get("X-Bench-Id")}


def _fl_run(_args: tuple, _kwargs: dict, report: Any) -> dict[str, Any]:
    return {
        "rounds": len(report.records),
        "punctures": sum(bool(r.resolve_punctured) for r in report.records),
    }


#: layer -> [(module, selector, hook)].  A selector is ``"__all__"`` (every
#: function the module exports), a function name, or ``"Class.method"``.
#: Names in ``_SKIP`` are configuration checks and registry lookups, not
#: work of the layer, and are never wrapped.
LAYERS: dict[str, list[tuple[str, str, Hook | None]]] = {
    "scenarios": [
        ("repro.scenarios.spec", "ScenarioSpec.build", None),
        ("repro.scenarios.spec", "build_scenario_spec", None),
        ("repro.scenarios.paper", "__all__", None),
        ("repro.scenarios.families", "__all__", None),
    ],
    "allocator": [
        ("repro.core.allocator", "ResourceAllocator.solve", _allocator_solve),
        ("repro.core.allocator", "ResourceAllocator.solve_batch", _allocator_batch),
    ],
    "sp1": [("repro.core.subproblem1", "__all__", None)],
    "sp2": [
        ("repro.core.subproblem2", "__all__", None),
        ("repro.core.sum_of_ratios", "__all__", None),
        ("repro.core.sum_of_ratios", "SumOfRatiosSolver.solve", None),
    ],
    "solvers.lambert": [("repro.solvers.lambert", "__all__", _lambert_elements)],
    "solvers.golden": [("repro.solvers.scalar", "__all__", None)],
    "solvers.bisection": [("repro.solvers.bisection", "__all__", None)],
    "baselines": [("repro.baselines", "__all__", None)],
    "runner": [("repro.experiments.runner", "SweepRunner.run", _runner_run)],
    "runner.exec": [
        ("repro.experiments.runner", "execute_task_detailed", _exec_one),
        ("repro.experiments.runner", "execute_batch", _exec_batch),
    ],
    "store.get": [("repro.store.columnar", "ColumnarResultStore.get_entry", _store_get)],
    "store.put": [("repro.store.columnar", "ColumnarResultStore.put", None)],
    # Every workload uses the columnar store, whose ``flush`` is the base
    # class's no-op today: ``store.flush_s`` reads ~0 until a backend
    # buffers its writes.
    "store.flush": [("repro.store.base", "ResultStore.flush", None)],
    "serve.http": [("repro.serve.server", "_Handler.do_POST", _http_request)],
    "serve.service": [("repro.serve.server", "AllocationService.solve", None)],
    "serve.parse": [("repro.serve.schema", "__all__", None)],
    "serve.submit": [("repro.serve.coalescer", "RequestCoalescer.submit", _submit)],
    "fl": [("repro.fl.roundloop", "FLRoundLoop.run", _fl_run)],
    "fl.select": [("repro.fl.selection", "select_clients", None)],
    "fl.train": [("repro.fl.server", "FedAvgServer.run_round", None)],
}

_SKIP = frozenset({"validate_backend", "get_baseline"})


class Recorder:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn: Callable, hook: Hook | None) -> Callable:
        """``fn`` wrapped so every call records one span of ``layer``."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            nested = any(open_layer == layer for _, open_layer in stack)
            stack.append((sid, layer))
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, layer, name, started, perf_counter(), nested, None))
                stack.pop()
                raise
            ended = perf_counter()
            stack.pop()
            attrs = hook(args, kwargs, result) if hook is not None else None
            spans.append((sid, parent, layer, name, started, ended, nested, attrs))
            return result

        traced.__wrapped_by_perfbench__ = True  # type: ignore[attr-defined]
        return traced

    def dump(self, path: str | Path) -> None:
        """Write every recorded span as one JSON list per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _targets(module_name: str, selector: str) -> list[tuple[Any, str, Callable]]:
    """``(owner, attribute, function)`` triples a selector names."""
    module = importlib.import_module(module_name)
    if selector == "__all__":
        return [
            (module, name, getattr(module, name))
            for name in module.__all__
            if name not in _SKIP and inspect.isfunction(getattr(module, name))
        ]
    if "." in selector:
        class_name, method = selector.split(".")
        owner = getattr(module, class_name)
        return [(owner, method, getattr(owner, method))]
    return [(module, selector, getattr(module, selector))]


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Point every by-name import and registry entry of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if attr == "__builtins__":
                continue
            if value is original:
                setattr(module, attr, wrapper)
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = wrapper


def install(recorder: Recorder) -> int:
    """Wrap every layer function in ``LAYERS``; returns the number wrapped."""
    for module_name in ("repro.cli", "repro.experiments.registry", "repro.serve", "repro.fl"):
        importlib.import_module(module_name)
    wrapped = 0
    for layer, selectors in LAYERS.items():
        for module_name, selector, hook in selectors:
            for owner, attr, fn in _targets(module_name, selector):
                if getattr(fn, "__wrapped_by_perfbench__", False):
                    continue
                wrapper = recorder.wrap(layer, f"{owner.__name__}.{attr}", fn, hook)
                setattr(owner, attr, wrapper)
                if inspect.ismodule(owner):
                    _rebind(fn, wrapper)
                wrapped += 1
    return wrapped


def load_spans(path: str | Path) -> list[tuple]:
    """Read spans written by :meth:`Recorder.dump`."""
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]
