"""Correctness gates that do not depend on a reference run.

Each gate returns a list of failure messages (empty = pass).  A failure
fails the whole benchmark run; it is never turned into a metric.

* ``sweep``: every solved task's state, replayed through
  ``allocation_from_state`` on a rebuilt drop, passes
  ``core.verify.check_primal`` and reproduces the reported objective.
* ``serve``: every repeat of a digest returns identical metrics, and a
  seeded sample of digests re-solved with ``execute_task`` matches the
  served metrics exactly.
* ``fl``: every per-round metric is finite and accuracy lies in [0, 1].
* On the default seed the ``sweep`` and ``fl`` result CSVs are
  byte-identical to the ones this tree produced (pinned below by digest).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "EXPECTED_CSV_SHA256",
    "csv_digest",
    "check_csv_digest",
    "check_sweep_outcomes",
    "check_fl_table",
    "check_serve_responses",
]

#: SHA-256 of the result CSV of pass 0 on the default seed (the stock
#: fig2 bench grid and the stock flcurve config).
EXPECTED_CSV_SHA256 = {
    "sweep": "8fb75d2c12de86c7ae6fc723526448f0ebd595f8ffb465d1ee44ab555455c29d",
    "fl": "3de6bb314e44e6e0bd20a2ed72a4de497d9515148bb10652d4dcc56114c4db0a",
}

#: ``allocation_from_state`` renormalises the bandwidth split, which can
#: move the recomputed objective by an ulp or two.
OBJECTIVE_RTOL = 1e-12
#: Served digests re-solved in-process per serve run.
RESOLVE_SAMPLE = 8


def csv_digest(table: Any, path: Path) -> str:
    """Write ``table`` as CSV to ``path`` and return the file's SHA-256."""
    table.to_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_csv_digest(workload: str, digest: str) -> list[str]:
    expected = EXPECTED_CSV_SHA256[workload]
    if digest != expected:
        return [f"{workload}: result CSV digest {digest} != pinned {expected}"]
    return []


def check_sweep_outcomes(outcomes: Iterable[Any]) -> list[str]:
    """Primal feasibility and objective replay of every solved sweep task."""
    from repro.core.problem import JointProblem, ProblemWeights
    from repro.core.verify import check_primal
    from repro.experiments.runner import allocation_from_state

    failures: list[str] = []
    for outcome in outcomes:
        if not outcome.ok:
            continue  # counted as a failed operation, not a gate
        task = outcome.task
        system = task.scenario_spec().build()
        problem = JointProblem(
            system,
            ProblemWeights.from_energy_weight(task.solver_params["energy_weight"]),
            deadline_s=task.solver_params.get("deadline_s"),
        )
        allocation = allocation_from_state(system, outcome.state or {})
        if allocation is None:
            failures.append(f"sweep {task.key}: state does not rebuild an allocation")
            continue
        failures.extend(f"sweep {task.key}: {p}" for p in check_primal(problem, allocation).problems())
        replayed = problem.objective_terms(allocation)["objective"]
        reported = outcome.metrics["objective"]
        if not abs(replayed - reported) <= OBJECTIVE_RTOL * abs(reported):
            failures.append(f"sweep {task.key}: objective {replayed!r} != reported {reported!r}")
    return failures


_FL_COLUMNS = ("elapsed_s", "energy_j", "accuracy", "test_loss", "selected")


def check_fl_table(table: Any) -> list[str]:
    """Finite per-round metrics and accuracy in [0, 1] for every run that
    completed (a failed run is a failed operation, and its rows are NaN)."""
    failed = {tuple(error["key"][1:]) for error in table.errors}
    failures: list[str] = []
    for row in table.rows:
        if (row["family"], row["scheme"], row["profiles"]) in failed:
            continue
        where = f"fl {row['family']}/{row['scheme']}/{row['profiles']} round {row['round']}"
        for column in _FL_COLUMNS:
            if not math.isfinite(float(row[column])):
                failures.append(f"{where}: {column} = {row[column]!r}")
        if not 0.0 <= float(row["accuracy"]) <= 1.0:
            failures.append(f"{where}: accuracy {row['accuracy']!r} outside [0, 1]")
    return failures


def _canonical(metrics: Mapping[str, Any]) -> str:
    return json.dumps(metrics, sort_keys=True, default=float)


def check_serve_responses(responses: Iterable[Any], seed: int) -> list[str]:
    """Repeats agree; a seeded sample re-solved in-process matches exactly."""
    from repro.experiments.runner import execute_task
    from repro.serve.schema import parse_request

    failures: list[str] = []
    by_digest: dict[str, tuple[dict, str]] = {}
    for response in responses:
        if not response.ok:
            continue
        digest = response.payload["digest"]
        metrics = _canonical(response.payload["metrics"])
        first = by_digest.setdefault(digest, (response.body, metrics))
        if first[1] != metrics:
            failures.append(f"serve {digest[:12]}: a repeat returned different metrics")
    digests = sorted(by_digest)
    sample = random.Random(f"resolve:{seed}").sample(digests, min(RESOLVE_SAMPLE, len(digests)))
    for digest in sample:
        body, served = by_digest[digest]
        local = json.loads(_canonical(execute_task(parse_request(body))))
        if _canonical(local) != served:
            failures.append(f"serve {digest[:12]}: re-solved metrics differ from the served ones")
    return failures
