"""The stacked Algorithm-1 tail against its frozen per-lane reference.

:func:`repro.core.subproblem2._sp2_finish_rows` builds the SP2_v2
allocations and :class:`repro.core.sum_of_ratios._LaneRows` takes the damped
Newton step once per round over each stack of same-size lanes.  These tests
hold both to the per-lane code they replaced (``tests/sp2_tail_reference.py``)
bit for bit, exception types and messages included, on mixed batches where
each lane takes its own path: rate-active and slack devices, a slack budget,
no constrained device, the ``p_min`` relax-and-retry, both infeasible-LP
raises and the active-rate raise, numeric and incumbent fallbacks, zero-rate
iterates, and ``use_numeric_fallback=False``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import build_paper_scenario
from repro.core import subproblem2
from repro.core.subproblem2 import (
    SP2Result,
    SystemRows,
    _subset_row_sums,
    solve_sp2_v2,
)
from repro.core.sum_of_ratios import (
    SumOfRatiosConfig,
    SumOfRatiosSolver,
    _LaneRows,
    solve_sum_of_ratios_stacks,
)
from repro.exceptions import ConvergenceError, InfeasibleProblemError
from repro.solvers import damped_newton_step_rows, row_norms, solve_box_budget_lp_rows
from tests import sp2_tail_reference as ref
from tests.mu_search_scalar_reference import SEARCHES

_KINDS = (
    "none",  # no rate-constrained device: the search is skipped
    "tiny",  # tiny requirements: a slack budget, mu = 0
    "loose",  # some devices rate-active, the rest slack (box LP)
    "tight",  # every constrained device rate-active
    "ties",  # identical devices: tied LP costs
    "small-beta",  # p_min-induced LP bounds: the relax-and-retry
    "impossible",  # requirements above the budget: raises / fallbacks
    "infinite",  # an infinite requirement
)


def _lane(n: int, seed: int, kind: str, factor: float, salt: int):
    """``(system, nu, beta, min_rate, power, bandwidth)`` of one lane: the
    allocator's start (max power, half the budget split evenly), its exact
    auxiliary ratios, and requirements shaped by ``kind``."""
    system = build_paper_scenario(num_devices=n, seed=seed)
    rng = np.random.default_rng(salt)
    if kind == "ties" and n > 1:
        gains = system.gains.copy()
        gains[rng.random(n) < 0.6] = gains[0]
        system = dataclasses.replace(system, gains=gains)
    power = system.max_power_w.copy()
    bandwidth = np.full(n, system.total_bandwidth_hz / (2 * n))
    rates = system.rates_bps(power, bandwidth)
    beta = power * system.upload_bits / rates
    nu = 0.5 * system.global_rounds / rates
    some = rng.random(n) < 0.6
    if kind == "none":
        min_rate = np.zeros(n)
    elif kind == "tiny":
        min_rate = rates * 1e-4
    elif kind == "tight":
        min_rate = rates * factor
    elif kind == "impossible":
        min_rate = rates * (20.0 + 40.0 * factor)
    else:
        min_rate = np.where(some, rates * factor * rng.uniform(0.2, 1.0, n), 0.0)
    if kind == "small-beta":
        beta = np.where(rng.random(n) < 0.7, beta * 10.0 ** -rng.uniform(2.0, 6.0, n), beta)
    if kind == "infinite":
        min_rate[rng.integers(n)] = np.inf
    return system, nu, beta, min_rate, power, bandwidth


_lane_spec = st.tuples(
    st.integers(min_value=1, max_value=44),
    st.integers(min_value=0, max_value=40),
    st.sampled_from(_KINDS),
    st.floats(min_value=0.05, max_value=1.6),
    st.integers(min_value=0, max_value=2**16),
)


def _sp2_rows(systems, nus, betas, min_rates):
    """Closed-form SP2_v2 of independent lanes, stacked by device count
    (:func:`~repro.core.subproblem2._solve_sp2_stacks`): each lane's result,
    or its exception, in its slot."""
    groups: dict[int, list[int]] = {}
    for i, system in enumerate(systems):
        groups.setdefault(system.num_devices, []).append(i)
    members = list(groups.values())
    outs = subproblem2._solve_sp2_stacks(
        [SystemRows.of([systems[i] for i in lanes]) for lanes in members],
        *(
            [np.array([column[i] for i in lanes], dtype=float) for lanes in members]
            for column in (nus, betas, min_rates)
        ),
    )
    results = [None] * len(systems)
    for lanes, out in zip(members, outs):
        for k, i in enumerate(lanes):
            results[i] = out.result(k)
    return results


def _one(solve, *args, **kwargs):
    """A one-lane public call, its exception returned instead of raised."""
    try:
        return solve(*args, **kwargs)
    except (InfeasibleProblemError, ConvergenceError) as exc:
        return exc


def _same_sp2(got, want) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    assert isinstance(got, SP2Result)
    for name in ("power_w", "bandwidth_hz", "rate_multipliers"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.objective == want.objective or (np.isnan(got.objective) and np.isnan(want.objective))
    assert got.bandwidth_multiplier == want.bandwidth_multiplier
    assert got.feasible == want.feasible
    assert got.method == want.method
    if want.constrained_roots is None:
        assert got.constrained_roots is None
    else:
        assert got.constrained_roots.tobytes() == want.constrained_roots.tobytes()


def _same_run(got, want) -> None:
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        return
    for name in ("power_w", "bandwidth_hz", "nu", "beta"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("communication_energy_j", "converged", "iterations", "feasible",
                 "bandwidth_multiplier"):
        assert getattr(got, name) == getattr(want, name), name
    assert [dataclasses.astuple(r) for r in got.history] == [
        dataclasses.astuple(r) for r in want.history
    ]


# -- the SP2_v2 closed form ----------------------------------------------------


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    specs=st.lists(_lane_spec, min_size=1, max_size=7),
    backend=st.sampled_from(["vector", "scalar"]),
)
@example(specs=[(20, 3, "loose", 0.9, 1), (20, 4, "loose", 0.9, 2), (20, 5, "ties", 0.7, 3)],
         backend="vector")
@example(specs=[(12, 1, "small-beta", 1.2, 5), (12, 2, "impossible", 1.0, 6),
                (12, 3, "infinite", 0.5, 7), (12, 4, "none", 0.5, 8), (12, 5, "tiny", 0.5, 9)],
         backend="vector")
def test_stacked_sp2_matches_the_per_lane_reference(specs, backend):
    """Every lane of a mixed batch (sizes 1-44, so some subsets sit above
    NumPy's 8-element pairwise threshold) gets the reference's result, or
    its exception type and message."""
    lanes = [_lane(*spec) for spec in specs]
    args = [[lane[i] for lane in lanes] for i in range(4)]
    with SEARCHES[backend]():
        got = _sp2_rows(*args)
        want = ref.solve_sp2_v2_rows_reference(*args)
        for g, w in zip(got, want):
            _same_sp2(g, w)
        for i, w in enumerate(want):
            _same_sp2(_one(solve_sp2_v2, *[a[i] for a in args]), w)


def _crafted_box_lp_raise():
    """A lane whose p_min-induced LP bounds sum to just above the budget,
    inside the finish's relative slack but above the box LP's ``atol``."""
    system, nu, _, _, _, _ = _lane(6, 9, "none", 1.0, 0)
    g, d, noise = system.gains, system.upload_bits, system.noise_psd_w_per_hz
    target = np.full(6, system.total_bandwidth_hz * (1.0 + 5e-10) / 6)
    beta = noise * d * np.log(2.0) / g * (1.0 + system.min_power_w * g / (target * noise))
    return system, nu, beta, np.zeros(6)


def test_each_finish_raise_keeps_its_lane_and_message(monkeypatch):
    """Lanes raising the three finish errors sit beside healthy lanes."""
    healthy = [_lane(10, s, "loose", 0.8, s)[:4] for s in range(3)]
    relax = _lane(10, 7, "small-beta", 1.6, 4)[:4]
    lp = _crafted_box_lp_raise()
    infinite = _lane(10, 8, "infinite", 0.5, 5)[:4]
    lanes = healthy + [relax, lp, infinite]
    args = [[lane[i] for lane in lanes] for i in range(4)]
    got = _sp2_rows(*args)
    want = ref.solve_sp2_v2_rows_reference(*args)
    for g, w in zip(got, want):
        _same_sp2(g, w)
    messages = [str(w) for w in want if isinstance(w, Exception)]
    assert any(m.startswith("box LP lower bounds sum to") for m in messages)
    assert "infinite rate requirement in SP2_v2" in messages

    # Too small a multiplier over-spends the budget on the active devices.
    vector, rows = subproblem2._mu_search_vector, subproblem2._mu_search_vector_rows

    def shrunk(*a, **kw):
        mu, x = vector(*a, **kw)
        return (mu * 0.7, subproblem2.solve_x_log_x(mu * 0.7 / a[0])) if mu > 0 else (mu, x)

    def shrunk_rows(j_rows, *a, **kw):
        mu, x, errors = rows(j_rows, *a, **kw)
        return mu * 0.7, subproblem2.solve_x_log_x_rows(mu[:, None] * 0.7 / j_rows), errors

    monkeypatch.setattr(subproblem2, "_mu_search_vector", shrunk)
    monkeypatch.setattr(subproblem2, "_mu_search_vector_rows", shrunk_rows)
    tight = [_lane(10, s, "tight", 1.9, s)[:4] for s in range(3)]
    args = [[lane[i] for lane in tight + healthy] for i in range(4)]
    got = _sp2_rows(*args)
    want = ref.solve_sp2_v2_rows_reference(*args)
    for g, w in zip(got, want):
        _same_sp2(g, w)
    assert "active rate constraints exceed the bandwidth budget" in [str(w) for w in want]
    # A one-lane group (the 1-D search) raises the same way.
    _same_sp2(_one(solve_sp2_v2, *[a[0] for a in args]), want[0])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=44),
    lanes=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(n=12, lanes=8, seed=11)
def test_stacked_finish_matches_the_per_lane_finish(n, lanes, seed):
    """The allocation tail alone, from multipliers off the root: over- and
    under-spent budgets reach every raise (active rates over the budget, LP
    bounds over the remainder after the relax-and-retry) beside lanes that
    take the box LP, with each lane's own message."""
    rng = np.random.default_rng(seed)
    systems = [build_paper_scenario(num_devices=n, seed=int(s)) for s in rng.integers(0, 40, lanes)]
    stack = subproblem2.SystemRows.of(systems)
    power = np.array([s.max_power_w for s in systems])
    bandwidth = np.array([np.full(n, s.total_bandwidth_hz / (2 * n)) for s in systems])
    rates = np.array([s.rates_bps(p, b) for s, p, b in zip(systems, power, bandwidth)])
    nu = 0.5 * 100 / rates * 10.0 ** rng.uniform(-1.0, 1.0, (lanes, n))
    beta = power * stack.bits / rates * 10.0 ** rng.uniform(-4.0, 2.0, (lanes, n))
    rmin = np.where(rng.random((lanes, n)) < rng.uniform(0.0, 1.0, (lanes, 1)),
                    rates * 10.0 ** rng.uniform(-2.0, 1.0, (lanes, n)), 0.0)
    nu, beta, rmin, j, constrained, errors = subproblem2._sp2_prepare_rows(stack, nu, beta, rmin)
    mu = np.median(j, axis=1) * 4.0 ** rng.uniform(-2, 6, lanes)
    mu = np.where(rng.random(lanes) < 0.85, mu, 0.0)
    roots = subproblem2.solve_x_log_x_rows(np.maximum(mu[:, None], 1e-300) / j)
    x = np.where(constrained, roots, 2.0)
    got = subproblem2._sp2_finish_rows(stack, nu, beta, rmin, j, constrained, mu, x, errors)
    power_r, bandwidth_r, rates_r, tau_r, feasible_r, objective_r = got
    for k, system in enumerate(systems):
        x_c = x[k][constrained[k]] if mu[k] > 0 else None
        try:
            want = ref._sp2_finish(
                system, nu[k], beta[k], rmin[k], j[k], constrained[k], mu[k], x_c
            )
        except Exception as exc:  # repro-lint: disable=RL005 -- the message is the assertion
            assert type(errors[k]) is type(exc) and str(errors[k]) == str(exc)
            continue
        assert errors[k] is None
        assert power_r[k].tobytes() == want.power_w.tobytes()
        assert bandwidth_r[k].tobytes() == want.bandwidth_hz.tobytes()
        assert tau_r[k].tobytes() == want.rate_multipliers.tobytes()
        assert rates_r[k].tobytes() == system.rates_bps(want.power_w, want.bandwidth_hz).tobytes()
        assert bool(feasible_r[k]) == want.feasible
        assert objective_r[k] == want.objective


def test_perturbing_one_lane_moves_no_other_lane():
    lanes = [_lane(16, s, kind, 0.8, s)[:4] for s, kind in enumerate(_KINDS)]
    args = [[lane[i] for lane in lanes] for i in range(4)]
    before = _sp2_rows(*args)
    args[1][2] = args[1][2] * 1.37  # lane 2's nu
    after = _sp2_rows(*args)
    for k, (b, a) in enumerate(zip(before, after)):
        if k != 2:
            _same_sp2(a, b)


# -- stacked helpers -------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    lanes=st.integers(min_value=1, max_value=40),
    n=st.integers(min_value=1, max_value=44),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_subset_row_sums_match_the_one_lane_sums(lanes, n, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((lanes, n)) * 10.0 ** rng.integers(-6, 7, (lanes, n))
    mask = rng.random((lanes, n)) < rng.uniform(0.1, 1.0)
    rows = np.flatnonzero(rng.random(lanes) < 0.8)
    got = _subset_row_sums(values, mask, rows)
    want = [values[k][mask[k]].sum() for k in rows]
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(lanes=st.integers(min_value=1, max_value=40), n=st.integers(min_value=1, max_value=90),
       seed=st.integers(min_value=0, max_value=2**16))
def test_row_norms_match_the_one_lane_norms(lanes, n, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((lanes, n)) * 10.0 ** rng.integers(-8, 8, (lanes, n))
    assert row_norms(rows).tobytes() == np.array(
        [np.linalg.norm(row) for row in rows]
    ).tobytes()


@settings(max_examples=80, deadline=None)
@given(lanes=st.integers(min_value=1, max_value=12), m=st.integers(min_value=1, max_value=44),
       seed=st.integers(min_value=0, max_value=2**16))
def test_box_lp_rows_match_the_one_lane_greedy(lanes, m, seed):
    """Tied costs, infinite rooms, NaN costs and infeasible rows included."""
    rng = np.random.default_rng(seed)
    costs = rng.standard_normal((lanes, m))
    if rng.random() < 0.4:
        costs = np.round(costs)  # ties
    lower = rng.uniform(0.0, 1.0, (lanes, m)) * (rng.random((lanes, m)) < 0.8)
    upper = lower + rng.uniform(0.0, 2.0, (lanes, m)) * (rng.random((lanes, m)) < 0.9)
    if rng.random() < 0.15:
        upper[rng.random((lanes, m)) < 0.2] = np.inf
    if rng.random() < 0.1:
        costs[rng.random((lanes, m)) < 0.1] = np.nan
    if rng.random() < 0.1:
        upper[0, 0] = lower[0, 0] - 1.0
    budgets = lower.sum(axis=1) + rng.uniform(-0.5, 10.0, lanes)
    atol = 0.0 if rng.random() < 0.1 else 1e-9
    with np.errstate(invalid="ignore"):
        x, errors = solve_box_budget_lp_rows(costs, lower, upper, budgets, atol=atol)
        for i in range(lanes):
            try:
                want = ref.solve_box_budget_lp(costs[i], lower[i], upper[i], float(budgets[i]),
                                               atol=atol)
            except Exception as exc:  # repro-lint: disable=RL005 -- the message is the assertion
                assert errors[i] == str(exc)
                continue
            assert errors[i] is None
            assert x[i].tobytes() == want.x.tobytes()
            one, one_errors = solve_box_budget_lp_rows(
                costs[i : i + 1], lower[i : i + 1], upper[i : i + 1], budgets[i : i + 1],
                atol=atol,
            )
            assert one_errors == [None]
            assert one[0].tobytes() == want.x.tobytes()
            assert float(costs[i] @ one[0]) == want.objective or np.isnan(want.objective)


def test_box_lp_rows_reject_a_negative_atol():
    with pytest.raises(ValueError, match="atol"):
        solve_box_budget_lp_rows(np.zeros((1, 2)), np.zeros((1, 2)), np.ones((1, 2)), np.ones(1),
                                 atol=-1.0)


def _linear_problem(rng, lanes, n):
    """Rows of ``phi(a) = phi0 + a * rates`` with the exact Newton direction
    scaled per row, so rows need different backtrack exponents; some rows
    point the wrong way and run out of backtracks."""
    phi0 = -rng.uniform(0.5, 2.0, (lanes, 2 * n))
    rates = rng.uniform(0.5, 2.0, (lanes, 2 * n))
    alpha = rng.uniform(0.0, 2.0, (lanes, 2 * n))
    scale = rng.choice([1.0, 3.0, 9.0, 40.0, -1.0], size=lanes)[:, None]
    direction = (-phi0 / rates - alpha) * scale
    return phi0, rates, alpha, direction


@settings(max_examples=60, deadline=None)
@given(
    lanes=st.integers(min_value=1, max_value=30),
    n=st.integers(min_value=1, max_value=22),
    backtracks=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_damped_newton_rows_match_the_one_lane_step(lanes, n, backtracks, seed):
    """Each row takes its own exponent: same alpha, exponent, step size,
    norm and acceptance as the 1-D step, exhausted line searches included."""
    rng = np.random.default_rng(seed)
    phi0, rates, alpha, direction = _linear_problem(rng, lanes, n)
    xi = rng.choice([0.5, 0.3, 0.9], size=lanes)
    eps = rng.choice([0.01, 0.2], size=lanes)
    if lanes > 1:
        alpha[-1] = -phi0[-1] / rates[-1]  # a zero residual
        direction[-1] = 1.0

    def residual(candidate, rows):
        return phi0[rows] + candidate * rates[rows]

    base = row_norms(residual(alpha, slice(None)))
    got = damped_newton_step_rows(alpha, residual, direction, base_norm=base, xi=xi, eps=eps,
                                  max_backtracks=backtracks)
    for i in range(lanes):
        want = ref.damped_newton_step(
            alpha[i],
            lambda a, i=i: phi0[i] + a * rates[i],
            direction[i],
            xi=float(xi[i]),
            eps=float(eps[i]),
            max_backtracks=backtracks,
        )
        assert got.alpha[i].tobytes() == want.alpha.tobytes()
        assert got.residual_norm[i] == want.residual_norm
        assert got.step_exponent[i] == want.step_exponent
        assert got.step_size[i] == want.step_size
        assert got.accepted[i] == want.accepted


def test_damped_newton_rows_exponents_differ_per_row():
    rng = np.random.default_rng(3)
    phi0, rates, alpha, direction = _linear_problem(rng, 5, 4)
    direction = (-phi0 / rates - alpha) * np.array([[1.0], [3.0], [9.0], [40.0], [-1.0]])
    base = row_norms(phi0 + alpha * rates)
    got = damped_newton_step_rows(
        alpha, lambda c, rows: phi0[rows] + c * rates[rows], direction,
        base_norm=base, xi=np.full(5, 0.5), eps=np.full(5, 0.01), max_backtracks=6,
    )
    assert len(set(got.step_exponent.tolist())) >= 3
    assert not got.accepted[-1] and got.step_exponent[-1] == 6


# -- Algorithm 1 -------------------------------------------------------------------

_CONFIGS = {
    "default": SumOfRatiosConfig(),
    "short": SumOfRatiosConfig(max_iterations=3, residual_tol=0.0, step_tol=0.0),
    "no-fallback": SumOfRatiosConfig(use_numeric_fallback=False),
    "damped": SumOfRatiosConfig(damping_xi=0.3, damping_eps=0.2, max_iterations=8),
}


def _algorithm1_rows(solvers, min_rates, powers, bandwidths):
    """Algorithm-1 runs stacked by device count
    (:func:`solve_sum_of_ratios_stacks`): each run's result, or its
    exception, in its slot."""
    groups: dict[int, list[int]] = {}
    for i, solver in enumerate(solvers):
        groups.setdefault(solver.system.num_devices, []).append(i)
    stacks = [
        _LaneRows(
            SystemRows.of([solvers[i].system for i in slots]),
            [solvers[i].system for i in slots],
            np.array([solvers[i]._scale for i in slots]),
            [solvers[i].config for i in slots],
            *(
                np.array([column[i] for i in slots], dtype=float)
                for column in (min_rates, powers, bandwidths)
            ),
        )
        for slots in groups.values()
    ]
    solve_sum_of_ratios_stacks(stacks)
    results = [None] * len(solvers)
    for slots, stack in zip(groups.values(), stacks):
        for k, i in enumerate(slots):
            results[i] = stack.result(k)
    return results


def _runs(specs):
    solvers, min_rates, powers, bandwidths = [], [], [], []
    for (n, seed, kind, factor, salt), config, weight in specs:
        system, _, _, min_rate, power, bandwidth = _lane(n, seed, kind, factor, salt)
        if kind == "small-beta":
            power = power * 0.2
        solvers.append(SumOfRatiosSolver(system, weight, _CONFIGS[config]))
        min_rates.append(min_rate)
        powers.append(power)
        bandwidths.append(bandwidth)
    return solvers, min_rates, powers, bandwidths


_run_spec = st.tuples(
    st.tuples(
        st.sampled_from([1, 3, 9, 20, 44]),
        st.integers(min_value=0, max_value=30),
        st.sampled_from(_KINDS),
        st.floats(min_value=0.05, max_value=1.6),
        st.integers(min_value=0, max_value=2**16),
    ),
    st.sampled_from(sorted(_CONFIGS)),
    st.sampled_from([0.1, 0.5, 0.9]),
)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(_run_spec, min_size=1, max_size=6))
@example(specs=[((9, 1, "loose", 0.9, 1), "default", 0.5), ((9, 2, "loose", 0.9, 2), "short", 0.5),
                ((9, 3, "impossible", 1.0, 3), "default", 0.5),
                ((9, 4, "impossible", 1.0, 4), "no-fallback", 0.5),
                ((9, 5, "none", 1.0, 5), "damped", 0.9), ((20, 6, "tiny", 1.0, 6), "default", 0.1)])
def test_stacked_algorithm1_matches_the_per_lane_reference(specs):
    """A mixed lockstep batch equals the frozen per-lane driver lane for
    lane, and each lane equals its own one-lane call."""
    args = _runs(specs)
    got = _algorithm1_rows(*args)
    want = ref.solve_sum_of_ratios_rows_reference(*args)
    for g, w in zip(got, want):
        _same_run(g, w)
    for i, g in enumerate(got):
        _same_run(_one(args[0][i].solve, *[a[i] for a in args[1:]]), g)


def test_algorithm1_edge_paths_in_one_batch(monkeypatch):
    """Numeric and incumbent fallbacks, a zero-rate iterate and a raised
    closed form without fallback, each beside healthy lanes."""
    specs = [
        ((9, 1, "loose", 0.9, 1), "default", 0.5),
        ((9, 3, "impossible", 1.0, 3), "default", 0.5),
        ((9, 4, "impossible", 1.0, 4), "no-fallback", 0.5),
        ((9, 5, "none", 1.0, 5), "default", 0.9),
        ((9, 6, "tight", 1.2, 6), "default", 0.5),
    ]
    args = _runs(specs)
    # The incumbent fallback: a tight lane whose start is its only point.
    system = args[0][4].system
    power = system.max_power_w.copy()
    bandwidth = np.full(9, system.total_bandwidth_hz / 9)
    args[0][4] = SumOfRatiosSolver(system, 0.5)
    args[1][4], args[2][4], args[3][4] = system.rates_bps(power, bandwidth), power, bandwidth
    notes = []
    want = ref.solve_sum_of_ratios_rows_reference(*args)
    got = _algorithm1_rows(*args)
    for g, w in zip(got, want):
        _same_run(g, w)
        if not isinstance(w, Exception):
            notes += [r.note for r in w.history]
    assert {"kkt", "numeric", "incumbent"} <= set(notes)
    assert any(isinstance(w, Exception) for w in want)

    # A zero-rate iterate: a box LP that leaves one slack device no band.
    rows_lp, one_lp = subproblem2.solve_box_budget_lp_rows, ref.solve_box_budget_lp

    def starving_rows(*a, **kw):
        x, errors = rows_lp(*a, **kw)
        x[:, 0] = 0.0
        return x, errors

    def starving_one(*a, **kw):
        result = one_lp(*a, **kw)
        x = result.x.copy()
        x[0] = 0.0
        return dataclasses.replace(result, x=x)

    monkeypatch.setattr(subproblem2, "solve_box_budget_lp_rows", starving_rows)
    monkeypatch.setattr(ref, "solve_box_budget_lp", starving_one)
    starved = _runs(
        [((9, 5, "none", 1.0, 5), "default", 0.9), ((9, 1, "loose", 0.9, 1), "default", 0.5)]
    )
    got = _algorithm1_rows(*starved)
    want = ref.solve_sum_of_ratios_rows_reference(*starved)
    for g, w in zip(got, want):
        _same_run(g, w)
    assert "zero uplink rate" in str(want[0])


@pytest.mark.parametrize("backend", ["vector", "scalar"])
def test_perturbing_one_run_moves_no_other_run(backend):
    specs = [((12, s, kind, 0.8, s), "default", 0.5) for s, kind in enumerate(_KINDS)]
    solvers, min_rates, powers, bandwidths = _runs(specs)
    with SEARCHES[backend]():
        before = _algorithm1_rows(solvers, min_rates, powers, bandwidths)
        min_rates[2] = min_rates[2] * 1.1 + 1.0
        after = _algorithm1_rows(solvers, min_rates, powers, bandwidths)
    for k, (b, a) in enumerate(zip(before, after)):
        if k != 2:
            _same_run(a, b)
