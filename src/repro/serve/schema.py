"""Request schema and validation for the allocation service.

A ``POST /solve`` body carries exactly the data that builds a
:class:`~repro.experiments.runner.SweepTask` — a scenario family with its
parameters plus the solver-side knobs — so a served request hashes with
the same :func:`~repro.experiments.runner.task_hash` as a CLI sweep and
its response is interchangeable (bit-identical, cache-compatible) with a
direct :func:`~repro.experiments.runner.execute_task` run::

    {
      "scenario": {"family": "paper", "num_devices": 12, "seed": 3, ...},
      "energy_weight": 0.5,            # required for the proposed scheme
      "deadline_s": null,              # optional hard completion budget
      "solver_kind": "proposed",       # or "baseline"
      "baseline": "benchmark",         # baseline name (baseline kind only)
      "baseline_kwargs": {},           # extra baseline arguments
      "allocator": {"max_iterations": 20, ...}    # AllocatorConfig overrides
    }

Validation is strict — unknown keys, wrong types, unregistered families or
baselines, allocator overrides outside the values the allocator accepts and
a ``scenario.num_devices`` outside ``[1, MAX_DEVICES]`` all raise
:class:`~repro.exceptions.ConfigurationError` with a message naming the
offending field, which the HTTP layer maps to a 400.  Nothing here builds
the scenario: a cache hit costs a parse and a hash, not a drop.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Mapping

from ..baselines.registry import get_baseline
from ..core.allocator import INITIAL_STRATEGIES, AllocatorConfig
from ..core.subproblem1 import SUBPROBLEM1_METHODS
from ..exceptions import ConfigurationError
from ..experiments.runner import SweepTask
from ..scenarios import get_scenario_family

__all__ = ["MAX_DEVICES", "parse_request"]

#: Largest ``scenario.num_devices`` a request may ask for: 12x the largest
#: ``--paper`` fleet (fig4's 80 devices).
MAX_DEVICES = 1000

#: Keys a request body may carry; anything else is rejected loudly (a typo
#: like "energy_wieght" silently falling back to a default would serve a
#: *different* allocation than the client asked for).
_REQUEST_KEYS = frozenset(
    {
        "scenario",
        "solver_kind",
        "energy_weight",
        "deadline_s",
        "baseline",
        "baseline_kwargs",
        "allocator",
    }
)

#: Allocator overrides the solver would fail on (a 500), refused as a 400
#: instead: field -> (accepts the value, what the value must be).
_ALLOCATOR_CHECKS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "initial_strategy": (
        lambda value: value in INITIAL_STRATEGIES,
        f"one of {', '.join(INITIAL_STRATEGIES)}",
    ),
    "subproblem1_method": (
        lambda value: value in SUBPROBLEM1_METHODS,
        f"one of {', '.join(SUBPROBLEM1_METHODS)}",
    ),
    "max_iterations": (lambda value: _is_int(value) and value >= 0, "an integer >= 0"),
    "tolerance": (
        lambda value: _is_number(value) and math.isfinite(value) and value >= 0,
        "a finite number >= 0",
    ),
    "initial_bandwidth_fraction": (
        lambda value: _is_number(value) and 0 < value <= 1,
        "a number in (0, 1]",
    ),
}

#: AllocatorConfig fields a request may override (the nested sum-of-ratios
#: configuration is not reachable, keeping the request surface flat and the
#: cache-key impact obvious).
_ALLOCATOR_FIELDS = frozenset(
    field.name for field in dataclasses.fields(AllocatorConfig)
) - {"sum_of_ratios"}


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require_number(body: Mapping[str, Any], key: str, default: Any = None) -> Any:
    value = body.get(key, default)
    if value is not None and not _is_number(value):
        raise ConfigurationError(f"request field {key!r} must be a number")
    return value


def _parse_scenario(body: Mapping[str, Any]) -> dict[str, Any]:
    scenario = body.get("scenario")
    if not isinstance(scenario, Mapping):
        raise ConfigurationError(
            "request must carry a 'scenario' object (the flat scenario "
            "mapping, e.g. {\"family\": \"paper\", \"num_devices\": 12, "
            "\"seed\": 0})"
        )
    scenario = {str(key): value for key, value in scenario.items()}
    family = scenario.get("family", "paper")
    if not isinstance(family, str):
        raise ConfigurationError("scenario field 'family' must be a string")
    get_scenario_family(family)  # fail fast with the known-family list
    if "num_devices" in scenario:
        num_devices = scenario["num_devices"]
        if not _is_int(num_devices) or not 1 <= num_devices <= MAX_DEVICES:
            raise ConfigurationError(
                f"scenario field 'num_devices' must be an integer in "
                f"[1, {MAX_DEVICES}], got {num_devices!r}"
            )
    return scenario


def _parse_allocator(
    body: Mapping[str, Any], default_allocator: AllocatorConfig | None
) -> AllocatorConfig:
    allocator = default_allocator if default_allocator is not None else AllocatorConfig()
    overrides = body.get("allocator")
    if overrides is not None:
        if not isinstance(overrides, Mapping):
            raise ConfigurationError("request field 'allocator' must be an object")
        unknown = sorted(set(map(str, overrides)) - _ALLOCATOR_FIELDS)
        if unknown:
            known = ", ".join(sorted(_ALLOCATOR_FIELDS))
            raise ConfigurationError(
                f"unknown allocator field(s) {', '.join(unknown)}; known: {known}"
            )
        for name, value in overrides.items():
            check = _ALLOCATOR_CHECKS.get(str(name))
            if check is not None and not check[0](value):
                raise ConfigurationError(
                    f"allocator field {name!r} must be {check[1]}, got {value!r}"
                )
        try:
            allocator = dataclasses.replace(allocator, **dict(overrides))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid allocator override: {exc}") from exc
    return allocator


def parse_request(
    body: Any, *, default_allocator: AllocatorConfig | None = None
) -> SweepTask:
    """Validate one request body and build its :class:`SweepTask`.

    The returned task's ``solver_params`` are constructed exactly as the
    sweep-engine task builders (:func:`repro.experiments.base.proposed_tasks`
    / ``baseline_tasks``) construct them, so the task hashes — and therefore
    caches and solves — identically to the same request made through a CLI
    sweep.  ``default_allocator`` is the service-wide allocator
    configuration a request's ``"allocator"`` overrides are applied on top
    of.
    """
    if not isinstance(body, Mapping):
        raise ConfigurationError("request body must be a JSON object")
    unknown = sorted(set(map(str, body)) - _REQUEST_KEYS)
    if unknown:
        known = ", ".join(sorted(_REQUEST_KEYS))
        raise ConfigurationError(
            f"unknown request field(s) {', '.join(unknown)}; known: {known}"
        )

    solver_kind = body.get("solver_kind", "proposed")
    if solver_kind not in ("proposed", "baseline"):
        raise ConfigurationError(
            f"request field 'solver_kind' must be 'proposed' or 'baseline', "
            f"got {solver_kind!r}"
        )

    scenario = _parse_scenario(body)
    deadline_s = _require_number(body, "deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
        if deadline_s <= 0.0:
            raise ConfigurationError("request field 'deadline_s' must be positive")

    if solver_kind == "proposed":
        if "baseline" in body or "baseline_kwargs" in body:
            raise ConfigurationError(
                "request fields 'baseline'/'baseline_kwargs' only apply to "
                "solver_kind 'baseline'"
            )
        if "energy_weight" not in body:
            raise ConfigurationError(
                "request field 'energy_weight' is required for the proposed scheme"
            )
        energy_weight = float(_require_number(body, "energy_weight"))
        if not 0.0 <= energy_weight <= 1.0:
            raise ConfigurationError(
                f"request field 'energy_weight' must lie in [0, 1], got {energy_weight}"
            )
        solver_params: dict[str, Any] = {
            "energy_weight": energy_weight,
            "deadline_s": deadline_s,
            "allocator": _parse_allocator(body, default_allocator),
        }
    else:
        name = body.get("baseline")
        if not isinstance(name, str):
            raise ConfigurationError(
                "request field 'baseline' (the baseline name) is required "
                "for solver_kind 'baseline'"
            )
        get_baseline(name)  # fail fast with the known-baseline list
        kwargs = body.get("baseline_kwargs", {})
        if not isinstance(kwargs, Mapping):
            raise ConfigurationError("request field 'baseline_kwargs' must be an object")
        if body.get("allocator") is not None:
            raise ConfigurationError(
                "request field 'allocator' only applies to solver_kind 'proposed'"
            )
        energy_weight = float(_require_number(body, "energy_weight", 0.5))
        if not 0.0 <= energy_weight <= 1.0:
            raise ConfigurationError(
                f"request field 'energy_weight' must lie in [0, 1], got {energy_weight}"
            )
        solver_params = {
            "name": name,
            "energy_weight": energy_weight,
            "deadline_s": deadline_s,
            "kwargs": {str(key): value for key, value in kwargs.items()},
        }

    return SweepTask(
        key=("serve",),
        scenario=scenario,
        solver_kind=solver_kind,
        solver_params=solver_params,
    )
