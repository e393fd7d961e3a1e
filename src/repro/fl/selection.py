"""Pluggable client-selection strategies for the closed-loop round loop.

Every global round of :class:`~repro.fl.roundloop.FLRoundLoop` prices the
whole fleet through the freshly re-solved resource allocation and then asks
a *selection strategy* which clients actually train and aggregate that
round.  A strategy is a plain function ``fn(ctx) -> indices`` registered by
name, where :class:`SelectionContext` carries everything the round knows:
the per-device time/energy implied by the allocation, the solver's round
deadline, and a deterministic per-round RNG.

Built-in strategies:

* ``all`` — full participation (the paper's system model);
* ``random-k`` — ``k`` clients drawn uniformly without replacement;
* ``fastest-k`` — the ``k`` clients with the smallest allocated round time;
* ``charge-k`` — the ``k`` clients with the most remaining battery charge
  (requires the round loop's battery tracking);
* ``deadline-k`` — allocation-aware: clients whose round time fits inside
  the solver's per-round deadline (scaled by ``deadline_slack``).  Unlike
  the other k-style strategies the ``k`` cap is *optional* here — the
  deadline is the primary filter; an explicit ``k`` truncates to the
  fastest ``k`` when over-subscribed, and the single fastest client is
  padded in when nobody fits.

All strategies are deterministic given the context: ties break by stable
sort on the client index, and randomness comes only from ``ctx.rng`` (which
the round loop seeds per round), so fixed-seed runs are bit-identical
across sweep execution orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "SelectionContext",
    "register_selection_strategy",
    "selection_strategies",
    "get_selection_strategy",
    "select_clients",
]


@dataclass(frozen=True)
class SelectionContext:
    """Everything one round exposes to its client-selection strategy."""

    #: 1-based index of the global round being selected for.
    round_index: int
    #: Size of the full client fleet.
    num_clients: int
    #: Per-device round time (computation + upload) under this round's
    #: allocation, in seconds.
    per_device_time_s: np.ndarray
    #: Per-device round energy under this round's allocation, in joules.
    per_device_energy_j: np.ndarray
    #: The allocator's per-round deadline ``T`` for this round, in seconds.
    round_deadline_s: float
    #: Deterministic per-round generator (seeded from the loop seed and the
    #: round index — never from global state).
    rng: np.random.Generator
    #: Strategy-specific parameters (e.g. ``{"k": 5}``).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Per-device battery state of charge in [0, 1], or None when the round
    #: loop is not tracking batteries (the frozen-fleet configuration).
    state_of_charge: np.ndarray | None = None


SelectionFn = Callable[[SelectionContext], np.ndarray]

_STRATEGIES: dict[str, SelectionFn] = {}


def register_selection_strategy(name: str) -> Callable[[SelectionFn], SelectionFn]:
    """Register ``fn(ctx) -> client indices`` as selection strategy ``name``."""

    def decorator(fn: SelectionFn) -> SelectionFn:
        _STRATEGIES[name] = fn
        return fn

    return decorator


def selection_strategies() -> tuple[str, ...]:
    """The registered selection-strategy names."""
    return tuple(sorted(_STRATEGIES))


def get_selection_strategy(name: str) -> SelectionFn:
    """Look up a strategy by name; raises on unknown names."""
    try:
        return _STRATEGIES[name]
    except KeyError as exc:
        known = ", ".join(selection_strategies())
        raise ConfigurationError(
            f"unknown selection strategy {name!r}; known: {known}"
        ) from exc


def select_clients(name: str, ctx: SelectionContext) -> np.ndarray:
    """Run strategy ``name`` and validate its output.

    Returns a sorted, duplicate-free, non-empty int array of client indices
    within ``[0, ctx.num_clients)``; anything else raises a
    :class:`ConfigurationError` naming the offending strategy.
    """
    raw = np.asarray(get_selection_strategy(name)(ctx))
    if raw.size == 0:
        raise ConfigurationError(f"selection strategy {name!r} selected no clients")
    indices = np.unique(raw.astype(int))
    if indices.size != raw.size:
        raise ConfigurationError(
            f"selection strategy {name!r} returned duplicate client indices"
        )
    if indices[0] < 0 or indices[-1] >= ctx.num_clients:
        raise ConfigurationError(
            f"selection strategy {name!r} returned indices outside "
            f"[0, {ctx.num_clients})"
        )
    return indices


def _resolve_k(ctx: SelectionContext) -> int:
    """The ``k`` of a k-style strategy: explicit, or half the fleet."""
    k = ctx.params.get("k")
    if k is None:
        k = max(1, ctx.num_clients // 2)
    k = int(k)
    if k <= 0:
        raise ConfigurationError(f"selection parameter k must be positive, got {k}")
    return min(k, ctx.num_clients)


@register_selection_strategy("all")
def select_all(ctx: SelectionContext) -> np.ndarray:
    """Full participation: every client trains every round."""
    return np.arange(ctx.num_clients)


@register_selection_strategy("random-k")
def select_random_k(ctx: SelectionContext) -> np.ndarray:
    """``k`` clients drawn uniformly without replacement from the round RNG."""
    k = _resolve_k(ctx)
    return np.sort(ctx.rng.choice(ctx.num_clients, size=k, replace=False))


@register_selection_strategy("fastest-k")
def select_fastest_k(ctx: SelectionContext) -> np.ndarray:
    """The ``k`` clients with the smallest allocated round time.

    Ties break on the lower client index (stable sort), keeping the
    selection deterministic for degenerate allocations.
    """
    k = _resolve_k(ctx)
    order = np.argsort(ctx.per_device_time_s, kind="stable")
    return np.sort(order[:k])


@register_selection_strategy("charge-k")
def select_charge_k(ctx: SelectionContext) -> np.ndarray:
    """The ``k`` clients with the most remaining battery charge.

    Battery-aware fairness for drained fleets: training rotates towards
    the devices that can best afford it, stretching the whole fleet's
    lifetime.  Requires the round loop's battery tracking (the strategy
    has nothing to rank without it); ties break on the lower client index.
    """
    if ctx.state_of_charge is None:
        raise ConfigurationError(
            "selection strategy 'charge-k' needs battery tracking (enable "
            "the round loop's battery configuration)"
        )
    k = _resolve_k(ctx)
    # argsort ascending on -soc = descending on soc, stable for index ties.
    order = np.argsort(-np.asarray(ctx.state_of_charge, dtype=float), kind="stable")
    return np.sort(order[:k])


@register_selection_strategy("deadline-k")
def select_deadline_k(ctx: SelectionContext) -> np.ndarray:
    """Allocation-aware selection against the solver's round deadline.

    Clients whose per-device round time fits within ``deadline_slack``
    (default 1.0) times the allocator's per-round deadline are eligible;
    when more than ``k`` fit, the fastest ``k`` are kept, and when *nobody*
    fits (a transiently terrible channel draw) the single fastest client
    still trains so the round is never empty.
    """
    slack = float(ctx.params.get("deadline_slack", 1.0))
    if slack <= 0.0:
        raise ConfigurationError(
            f"selection parameter deadline_slack must be positive, got {slack}"
        )
    budget = ctx.round_deadline_s * slack
    order = np.argsort(ctx.per_device_time_s, kind="stable")
    eligible = order[ctx.per_device_time_s[order] <= budget * (1.0 + 1e-9)]
    if eligible.size == 0:
        eligible = order[:1]
    k = ctx.params.get("k")
    if k is not None:
        k = int(k)
        if k <= 0:
            raise ConfigurationError(
                f"selection parameter k must be positive, got {k}"
            )
        eligible = eligible[:k]
    return np.sort(eligible)
