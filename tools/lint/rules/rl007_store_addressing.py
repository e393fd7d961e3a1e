"""RL007 store addressing: entry locations derive from the digest alone.

The result store (:mod:`repro.store`) addresses every entry by the SHA-256
``task_hash`` of its task payload: the JSON backend's ``entry_path`` fans
a digest out into ``sweeps/<digest[:2]>/<digest>.json``, the columnar
backend's ``_segment_path``/``_manifest_path``/``_log_path`` are
digest-independent fixed locations, and ``shard_for_digest`` assigns a
task to an execution shard from the digest prefix.  The standing
convention is: *where* an entry lives must be a pure function of the
digest (or a constant), never of the semantic task content — otherwise
two stores holding the same entries can disagree on layout, shard
partitions drift between runs, and ``repro store merge`` loses its
byte-identical-to-serial guarantee.

The rule checks the watched addressing functions statically: any
reference to semantic task material (the task payload, metrics, solution
state, scenario or solver parameters) inside one of them is a finding.
Renaming every watched function away without updating the spec below is
itself reported — a silently-detached invariant is the failure mode this
rule exists to prevent, exactly as for RL003's cache-key builders.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Finding, Project
from ..registry import Rule, register

#: The addressing primitives whose bodies must stay digest-pure.
WATCHED_FUNCTIONS = (
    "entry_path",
    "shard_for_digest",
    "_segment_path",
    "_manifest_path",
    "_log_path",
)

#: Names that mark semantic task content.  A watched function touching any
#: of these (as a parameter, variable, attribute or string key) is deriving
#: an entry's location from *what* the task computes instead of its digest.
FORBIDDEN = frozenset(
    {
        "task",
        "payload",
        "metrics",
        "state",
        "scenario",
        "solver_params",
        "config",
        "weights",
        "allocator",
    }
)


def _semantic_refs(fn: ast.FunctionDef) -> Iterator[tuple[str, ast.AST]]:
    """Forbidden names referenced anywhere in ``fn``, first occurrence each."""
    seen: dict[str, ast.AST] = {}
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in FORBIDDEN and name not in seen:
            seen[name] = node
    for name in sorted(seen):
        yield name, seen[name]


@register
class StoreAddressing(Rule):
    """Flag store-addressing functions that read semantic task content."""

    id = "RL007"
    name = "store-addressing"
    summary = (
        "result-store entry paths and shard assignment must be pure "
        "functions of the task digest, never of semantic task content"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/store/")

    def check_project(self, project: Project) -> Iterable[Finding]:
        modules = project.in_scope(self)
        if not modules:
            return
        found = False
        for module in modules:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.FunctionDef)
                    and node.name in WATCHED_FUNCTIONS
                ):
                    found = True
                    for name, ref in _semantic_refs(node):
                        yield module.finding(
                            self,
                            ref,
                            f"store-addressing function {node.name!r} "
                            f"references semantic task content {name!r}; "
                            "entry locations and shard assignment must "
                            "derive from the task digest alone (task_hash), "
                            "or sharded stores stop merging byte-identically "
                            "— see tools/lint/rules/rl007_store_addressing.py",
                        )
        if not found:
            yield modules[0].finding(
                self,
                modules[0].tree,
                "none of the watched store-addressing functions "
                f"({', '.join(WATCHED_FUNCTIONS)}) were found in this lint "
                "run — run repro lint on the whole src tree, or update "
                "tools/lint/rules/rl007_store_addressing.py after a rename",
            )
