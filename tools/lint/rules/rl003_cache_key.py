"""RL003 cache-key completeness: every semantic config field enters the key.

The sweep cache (:mod:`repro.experiments.runner`) is keyed by a SHA-256
over :meth:`SweepTask.payload`.  The standing convention since PR 1 is:
*every config field that affects a solve must enter the payload, or
``CACHE_VERSION`` must be bumped* — otherwise changing the field serves
stale results.  This rule checks the convention statically, cross-module,
for the watched configuration dataclasses.

Two carrier modes, matching how configs actually reach the payload:

* **explicit** — the class's fields are spelled out by a key-builder
  function (``SweepTask.payload``'s dict literal, ``SweepConfig.
  scenario_params``'s flat mapping plus the task builders that thread
  ``allocator`` into ``solver_params``).  Each dataclass field must be
  *mentioned* in one of the builders (as a dict-literal/string key, an
  attribute access, or a keyword argument) or sit on the spec's
  ``allow`` list of non-semantic fields.
* **asdict** — the config rides into the payload whole, through the
  ``dataclasses.asdict`` branch of ``runner._jsonify`` (true for
  ``AllocatorConfig``/``SumOfRatiosConfig`` inside ``solver_params`` and
  for ``RoundLoopConfig`` under ``solver_params["roundloop"]``), so new
  fields are covered automatically.  The rule then verifies the carrier
  is intact: the class is still a ``@dataclass`` and a ``_jsonify``
  function with an ``asdict(...)`` call exists in the linted tree.

Renaming a watched class or builder without updating the spec table below
is itself reported — a silently-detached invariant is the failure mode
this rule exists to prevent.  RL003 needs the whole tree in one run
(``repro lint src``): the class definition and its builders live in
different modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from ..asthelpers import dotted_name
from ..engine import Finding, ParsedModule, Project
from ..registry import Rule, register


@dataclass(frozen=True)
class KeySpec:
    """How one watched config class reaches the cache key."""

    #: ``"explicit"`` (fields named by builder functions) or ``"asdict"``.
    mode: str
    #: Names of the key-builder functions/methods (explicit mode): the
    #: class's own methods or module-level functions anywhere in the run.
    builders: tuple[str, ...] = ()
    #: Fields that deliberately stay out of the key, with the reason kept
    #: here so the allowlist is reviewable in one place.
    allow: frozenset[str] = frozenset()


#: class name -> how its fields must reach SweepTask.payload().
WATCHED: dict[str, KeySpec] = {
    # key is an aggregation label: tasks sharing a payload are the same
    # computation, so they share cache entries.
    "SweepTask": KeySpec(
        mode="explicit",
        builders=("payload",),
        allow=frozenset({"key"}),
    ),
    # num_trials/base_seed expand into the per-task scenario "seed" (each
    # trial is its own task); every other field must appear in the flat
    # scenario mapping or be threaded into solver_params by the builders.
    "SweepConfig": KeySpec(
        mode="explicit",
        builders=("scenario_params", "proposed_tasks", "baseline_tasks"),
        allow=frozenset({"num_trials", "base_seed"}),
    ),
    "AllocatorConfig": KeySpec(mode="asdict"),
    "SumOfRatiosConfig": KeySpec(mode="asdict"),
    "RoundLoopConfig": KeySpec(mode="asdict"),
    # size is a scheduling knob: a batched lane's
    # trajectory is bit-identical to the per-drop solve (parity-tested), so
    # batch size deliberately stays out of the payload and cache keys are
    # shared with serial runs.  Any *new* BatchConfig field must either be
    # threaded into SweepTask.payload() or join this allowlist consciously.
    "BatchConfig": KeySpec(
        mode="explicit",
        builders=("payload",),
        allow=frozenset({"size"}),
    ),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> Iterator[ast.AnnAssign]:
    """The class's dataclass fields (annotated, non-ClassVar, public)."""
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        if stmt.target.id.startswith("_"):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        yield stmt


def _mentions(fn: ast.AST) -> set[str]:
    """Every way a builder can 'name' a field: attrs, string keys, kwargs."""
    mentioned: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute):
            mentioned.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            mentioned.add(node.value)
        elif isinstance(node, ast.keyword) and node.arg:
            mentioned.add(node.arg)
    return mentioned


def _has_asdict_jsonify(modules: Iterable[ParsedModule]) -> bool:
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or node.name != "_jsonify":
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    name = dotted_name(inner.func)
                    if name in ("asdict", "dataclasses.asdict"):
                        return True
    return False


@register
class CacheKeyCompleteness(Rule):
    """Flag watched-config fields that never reach the cache key."""

    id = "RL003"
    name = "cache-key-completeness"
    summary = (
        "fields of the watched config dataclasses must enter "
        "SweepTask.payload() (directly or via the asdict carrier) or be "
        "allowlisted as non-semantic"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        modules = project.in_scope(self)
        classes: list[tuple[ParsedModule, ast.ClassDef, KeySpec]] = []
        functions: dict[str, list[ast.AST]] = {}
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    if node.name in WATCHED:
                        classes.append((module, node, WATCHED[node.name]))
                    for stmt in node.body:
                        if isinstance(stmt, ast.FunctionDef):
                            functions.setdefault(stmt.name, []).append(stmt)
                elif isinstance(node, ast.FunctionDef):
                    functions.setdefault(node.name, []).append(node)

        asdict_ok = _has_asdict_jsonify(modules)
        for module, node, spec in classes:
            if not _is_dataclass(node):
                yield module.finding(
                    self,
                    node,
                    f"{node.name} is cache-key-watched but is no longer a "
                    "@dataclass; its fields cannot be canonicalised into the "
                    "payload (update tools/lint/rules/rl003_cache_key.py if "
                    "this is intentional, and bump CACHE_VERSION)",
                )
                continue
            if spec.mode == "asdict":
                if not asdict_ok:
                    yield module.finding(
                        self,
                        node,
                        f"{node.name} is carried into the cache key whole via "
                        "the dataclasses.asdict branch of runner._jsonify, "
                        "but no such function exists in this lint run — run "
                        "repro lint on the whole src tree, or re-point the "
                        "spec in tools/lint/rules/rl003_cache_key.py",
                    )
                continue
            builders = [fn for name in spec.builders for fn in functions.get(name, [])]
            if not builders:
                yield module.finding(
                    self,
                    node,
                    f"none of {node.name}'s cache-key builders "
                    f"({', '.join(spec.builders)}) were found in this lint "
                    "run — run repro lint on the whole src tree, or update "
                    "the spec in tools/lint/rules/rl003_cache_key.py after a "
                    "rename",
                )
                continue
            mentioned: set[str] = set()
            for fn in builders:
                mentioned |= _mentions(fn)
            for field_stmt in _dataclass_fields(node):
                field_name = field_stmt.target.id  # type: ignore[union-attr]
                if field_name in spec.allow or field_name in mentioned:
                    continue
                yield module.finding(
                    self,
                    field_stmt,
                    f"field {field_name!r} of {node.name} never enters the "
                    f"cache key (not referenced in "
                    f"{'/'.join(spec.builders)}); thread it into the payload "
                    "and bump CACHE_VERSION, or allowlist it as non-semantic "
                    "in tools/lint/rules/rl003_cache_key.py",
                )
