"""RL001 seed-discipline: every RNG draw must be purpose-seeded.

The parity guarantees (serial vs ``--jobs``, batched vs per-drop, scalar
vs vector) hold because every random draw in ``src/repro`` flows from an
explicit, purpose-tagged seed — the trial seed inside a
:class:`~repro.experiments.runner.SweepTask`, or a ``(seed, stream)``
tuple like the round-loop's ``_DATASET_STREAM``.  Three things break
that:

* ``np.random.default_rng()`` **with no argument** — OS-entropy seeded,
  different on every call;
* the **legacy global-state API** (``np.random.rand``,
  ``np.random.seed`` & friends) — hidden shared state that process pools
  and import order can reorder;
* the stdlib :mod:`random` module — same problem, plus a different
  bit-stream per platform history.

``default_rng(seed)`` / ``default_rng(rng)`` pass-throughs are fine: the
rule checks that *an* argument is present, not where it came from —
provenance is enforced by the call-site conventions (sweep trial seeds,
tagged streams) that code review still owns.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..asthelpers import import_aliases, resolve_call_target
from ..engine import Finding, ParsedModule
from ..registry import Rule, register

#: numpy.random attributes that are allowed (seeded-Generator machinery
#: and type annotations); everything else on numpy.random is the legacy
#: global-state API.
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}


@register
class SeedDiscipline(Rule):
    """Flag unseeded ``default_rng()``, legacy ``np.random.*`` and stdlib ``random``."""

    id = "RL001"
    name = "seed-discipline"
    summary = (
        "RNGs must be purpose-seeded: no default_rng() without a seed, no "
        "legacy np.random.* global state, no stdlib random in src/repro"
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        aliases = import_aliases(module.tree)
        yield from self._check_imports(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(node, aliases)
            if target is None:
                continue
            if target == "numpy.random.default_rng" and not node.args and not node.keywords:
                yield module.finding(
                    self,
                    node,
                    "default_rng() without a seed is OS-entropy seeded and "
                    "breaks run-to-run determinism; pass a purpose-tagged "
                    "seed (or thread an existing Generator through)",
                )
            elif target.startswith("numpy.random."):
                attr = target.rsplit(".", 1)[1]
                if attr not in _NP_RANDOM_ALLOWED:
                    yield module.finding(
                        self,
                        node,
                        f"legacy global-state RNG numpy.random.{attr}(); use a "
                        "seeded np.random.default_rng(...) Generator instead",
                    )

    def _check_imports(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name == "random" or name.startswith("random."):
                    yield module.finding(
                        self,
                        node,
                        "stdlib random has hidden global state and a "
                        "platform-history-dependent stream; use a seeded "
                        "np.random.default_rng(...) Generator",
                    )
                    break
