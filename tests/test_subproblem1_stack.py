"""The stacked Subproblem 1 against its frozen one-lane solver.

:func:`repro.core.subproblem1.solve_subproblem1_stack` is the one
Subproblem-1 solver and :func:`repro.core.subproblem1.solve_subproblem1` its
one-row call; ``tests/subproblem1_reference.py`` keeps the 1-D solver they
replaced.  A Hypothesis differential draws mixed stacks (golden rows alone
and several together, ``w1 = 0``, ``w2 = 0`` and collapsed-interval
corners, feasible and infeasible fixed deadlines, the dual method, an
unknown method beside a deadline, bad uploads and negative weights) and
holds every row, and every one-row call, ``==``-equal to the frozen call:
frequencies, deadline, objective, method, dual variables, or the
exception's type and message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import subproblem1
from repro.core.subproblem1 import FrequencyRows, solve_subproblem1, solve_subproblem1_stack
from repro.exceptions import ConvergenceError, SolverError
from repro.scenarios import ScenarioSpec
from tests import subproblem1_reference as ref

pytestmark = pytest.mark.hypothesis

_KINDS = (
    "golden",  # both weights positive: the deadline search
    "w1-zero",  # only time matters
    "w2-zero",  # only energy matters
    "both-zero",
    "collapsed",  # one huge upload pins T: a collapsed interval
    "narrow",  # a large upload leaves a narrow, not collapsed, interval
    "deadline",  # a feasible fixed deadline
    "no-time",  # a fixed deadline at or below some upload
    "too-fast",  # a fixed deadline just above the uploads
    "nan-upload",
    "inf-upload",
    "negative-upload",
    "negative-weight",
)


def _row(family: str, n: int, seed: int, kind: str, w1: float, factor: float):
    """``(system, w1, w2, upload, round_deadline_s)`` of one row."""
    system = ScenarioSpec.from_mapping(
        {"family": family, "num_devices": n, "seed": seed}
    ).build()
    rng = np.random.default_rng(seed)
    bandwidth = system.total_bandwidth_hz * rng.uniform(0.2, 1.0, n) / n
    upload = system.upload_time_s(system.max_power_w, bandwidth)
    w2 = 1.0 - w1
    deadline = None
    fastest = float(np.max(upload + system.cycles_per_round / system.max_frequency_hz))
    if kind == "w1-zero":
        w1, w2 = 0.0, 1.0
    elif kind == "w2-zero":
        w2 = 0.0
    elif kind == "both-zero":
        w1 = w2 = 0.0
    elif kind == "collapsed":
        upload[rng.integers(n)] = 1e16
    elif kind == "narrow":
        upload[rng.integers(n)] = 1e9
    elif kind == "deadline":
        deadline = fastest * factor
    elif kind == "no-time":
        deadline = float(np.max(upload)) * rng.uniform(0.5, 1.0)
    elif kind == "too-fast":
        deadline = float(np.max(upload)) * (1.0 + 1e-9)
    elif kind == "nan-upload":
        upload[rng.integers(n)] = np.nan
    elif kind == "inf-upload":
        upload[rng.integers(n)] = np.inf
    elif kind == "negative-upload":
        upload[rng.integers(n)] = -1.0
    elif kind == "negative-weight":
        w1, w2 = (-w1, w2) if rng.random() < 0.5 else (w1, -w2)
    return system, w1, w2, upload, deadline


def _frozen(system, w1, w2, upload, deadline, method):
    try:
        return ref.solve_subproblem1(
            system, w1, w2, upload, round_deadline_s=deadline, method=method
        )
    except Exception as exc:  # repro-lint: disable=RL005 -- the exception is the expectation
        return exc


def _same(got, want) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    assert got.frequency_hz.tobytes() == want.frequency_hz.tobytes()
    assert got.round_deadline_s == want.round_deadline_s
    assert type(got.round_deadline_s) is type(want.round_deadline_s)
    assert got.objective == want.objective
    assert got.method == want.method
    if want.dual_variables is None:
        assert got.dual_variables is None
    else:
        assert got.dual_variables.tobytes() == want.dual_variables.tobytes()


def _stack_results(rows, method):
    """Every row of one stack as a result (or exception), read like
    :func:`solve_subproblem1` reads its one row."""
    systems = [row[0] for row in rows]
    frequency, deadline, status = solve_subproblem1_stack(
        systems,
        FrequencyRows.of(systems),
        np.array([row[1] for row in rows]),
        np.array([row[2] for row in rows]),
        np.array([row[3] for row in rows]),
        [row[4] for row in rows],
        method,
    )
    results = []
    for k, (system, w1, w2, _, given_deadline) in enumerate(rows):
        if status[k] is not None:
            results.append(status[k])
            continue
        realised = float(deadline[k])
        results.append(
            subproblem1.Subproblem1Result(
                frequency_hz=frequency[k],
                round_deadline_s=realised,
                objective=subproblem1._objective(system, w1, w2, frequency[k], realised),
                method="primal" if given_deadline is None else "deadline",
            )
        )
    return results


_row_spec = st.tuples(
    st.sampled_from(_KINDS),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=1.0, max_value=3.0),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    family=st.sampled_from(["paper", "hetero-fleet"]),
    n=st.sampled_from([1, 3, 9, 20]),
    method=st.sampled_from(["primal", "primal", "dual", "bogus"]),
    specs=st.lists(_row_spec, min_size=1, max_size=6),
)
@example(family="paper", n=9, method="primal", specs=[("golden", 1, 0.5, 1.0)])
@example(
    family="hetero-fleet",
    n=20,
    method="primal",
    specs=[("golden", s, w, 1.0) for s, w in ((1, 0.2), (2, 0.5), (3, 0.8), (4, 0.95))]
    + [("w1-zero", 5, 0.5, 1.0), ("w2-zero", 6, 0.5, 1.0), ("collapsed", 7, 0.5, 1.0),
       ("narrow", 8, 0.5, 1.0)],
)
@example(
    family="paper",
    n=9,
    method="bogus",
    specs=[("deadline", 1, 0.5, 1.5), ("no-time", 2, 0.5, 1.0), ("too-fast", 3, 0.5, 1.0),
           ("golden", 4, 0.5, 1.0), ("nan-upload", 5, 0.5, 1.0),
           ("negative-weight", 6, 0.5, 1.0), ("negative-weight", 7, 0.5, 1.0)],
)
@example(
    family="hetero-fleet",
    n=9,
    method="dual",
    specs=[("golden", 1, 0.3, 1.0), ("both-zero", 2, 0.6, 1.0), ("w1-zero", 3, 0.5, 1.0),
           ("w2-zero", 4, 0.5, 1.0), ("deadline", 5, 0.5, 2.0),
           ("inf-upload", 6, 0.5, 1.0), ("negative-upload", 7, 0.5, 1.0)],
)
@example(
    family="paper",
    n=3,
    method="dual",
    specs=[("collapsed", 1, 0.4, 1.0), ("golden", 2, 0.6, 1.0), ("collapsed", 3, 0.7, 1.0)],
)
def test_stacked_subproblem1_matches_the_frozen_solver(family, n, method, specs):
    rows = [_row(family, n, seed, kind, w1, factor) for kind, seed, w1, factor in specs]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wants = [_frozen(*row, method) for row in rows]
        for got, want in zip(_stack_results(rows, method), wants):
            _same(got, want)
        for (system, w1, w2, upload, deadline), want in zip(rows, wants):
            try:
                got = solve_subproblem1(
                    system, w1, w2, upload, round_deadline_s=deadline, method=method
                )
            except Exception as exc:  # repro-lint: disable=RL005 -- the exception is the assertion
                got = exc
            _same(got, want)


def test_a_stuck_rows_search_falls_back_to_one_search_per_row(monkeypatch):
    """When the rows golden section raises, each row searches alone with
    the scalar search and keeps the frozen bits."""
    rows = [_row("paper", 9, seed, "golden", w1, 1.0) for seed, w1 in ((1, 0.3), (2, 0.6))]

    def stuck(*args, **kwargs):
        raise ConvergenceError("golden_section_rows did not converge")

    monkeypatch.setattr(subproblem1, "golden_section_rows", stuck)
    results = _stack_results(rows, "primal")
    for got, row in zip(results, rows):
        _same(got, _frozen(*row, "primal"))


def test_a_dual_row_that_cannot_bracket_fails_alone():
    """A collapsed dual row's water-filling raises ``SolverError``; the
    error is that row's status, and its neighbour keeps its one-row bits."""
    bad = _row("paper", 9, 1, "collapsed", 0.4, 1.0)
    good = _row("paper", 9, 2, "golden", 0.6, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        got_bad, got_good = _stack_results([bad, good], "dual")
        with pytest.raises(SolverError) as raised:
            solve_subproblem1(bad[0], bad[1], bad[2], bad[3], method="dual")
    assert type(got_bad) is type(raised.value)
    assert str(got_bad) == str(raised.value)
    _same(got_good, solve_subproblem1(good[0], good[1], good[2], good[3], method="dual"))
    _same(got_good, _frozen(*good, "dual"))
