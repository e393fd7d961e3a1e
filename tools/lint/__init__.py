"""`repro-lint`: project-specific static analysis for the reproduction.

The reproduction's headline guarantees — bit-identical scalar/vector,
batched/per-drop and serial/parallel trajectories — rest on hand-maintained
conventions (purpose-tagged seed streams, ``ConvergenceError`` on
iteration-budget exhaustion, "every semantic config field enters the
cache key").  This package turns those conventions into AST-level lint
rules so a missed convention fails a CI job instead of silently
corrupting results three PRs later.

Entry points::

    python -m tools.lint [paths...]     # from a source checkout
    repro lint [paths...]               # via the installed CLI

Public API: :func:`tools.lint.engine.lint_paths` returns the findings for
a set of files/directories; :mod:`tools.lint.registry` holds the rule
registry.  Rules live in :mod:`tools.lint.rules`, one module per rule.

Suppressions: append ``# repro-lint: disable=RL001`` (comma-separate for
several rules) to the offending line, ideally with a short reason after
an ``--``.  Suppressions are line-scoped on purpose — there is no
file-level or block-level escape hatch, so every deliberate exception
stays visible at the exact statement it excuses.
"""

from __future__ import annotations

from .engine import PARSE_ERROR_ID, Finding, LintError, lint_paths, main
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintError",
    "PARSE_ERROR_ID",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "main",
    "register",
]
