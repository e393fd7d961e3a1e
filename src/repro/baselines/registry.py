"""Name-based registry of the baseline schemes.

The experiment runners refer to schemes by name so a figure definition is a
plain list of strings; the registry maps those names to callables with the
uniform signature ``baseline(problem, **kwargs) -> AllocationResult``.
"""

from __future__ import annotations

from typing import Callable

from ..core.allocator import AllocationResult
from ..exceptions import ConfigurationError
from .benchmark import random_benchmark
from .communication_only import communication_only
from .computation_only import computation_only
from .delay_min import delay_minimization
from .scheme1 import scheme1
from .static import static_equal_allocation

__all__ = ["BASELINES", "get_baseline"]

BaselineFn = Callable[..., AllocationResult]

#: All registered baseline schemes, keyed by the name used in experiment
#: definitions and result tables.
BASELINES: dict[str, BaselineFn] = {
    "benchmark": random_benchmark,
    "static": static_equal_allocation,
    "communication_only": communication_only,
    "computation_only": computation_only,
    "delay_min": delay_minimization,
    "scheme1": scheme1,
}


def get_baseline(name: str) -> BaselineFn:
    """Look up a baseline by name; raises :class:`ConfigurationError` if unknown."""
    try:
        return BASELINES[name]
    except KeyError as exc:
        known = ", ".join(sorted(BASELINES))
        raise ConfigurationError(f"unknown baseline {name!r}; known: {known}") from exc
