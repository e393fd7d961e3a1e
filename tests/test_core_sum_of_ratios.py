"""Tests for Algorithm 1 (the Newton-like sum-of-ratios solver)."""

import dataclasses

import numpy as np
import pytest

from repro.core.sum_of_ratios import SumOfRatiosConfig, SumOfRatiosSolver


def _setup(system, *, bandwidth_fraction=0.5, deadline_factor=1.5):
    n = system.num_devices
    power = system.max_power_w.copy()
    bandwidth = np.full(n, system.total_bandwidth_hz * bandwidth_fraction / n)
    rates = system.rates_bps(power, bandwidth)
    upload = system.upload_bits / rates
    compute = system.cycles_per_round / system.max_frequency_hz
    deadline = float(np.max(upload + compute)) * deadline_factor
    min_rate = system.upload_bits / np.maximum(deadline - compute, 1e-9)
    return power, bandwidth, min_rate


def _communication_energy(system, power, bandwidth):
    """Total transmission energy ``R_g sum p d / r`` of an allocation."""
    rates = system.rates_bps(power, bandwidth)
    return system.global_rounds * float(np.sum(power * system.upload_bits / rates))


def test_requires_positive_energy_weight(tiny_system):
    with pytest.raises(ValueError):
        SumOfRatiosSolver(tiny_system, 0.0)


def test_solution_is_feasible_and_not_worse(tiny_system):
    power, bandwidth, min_rate = _setup(tiny_system)
    solver = SumOfRatiosSolver(tiny_system, 0.5)
    start_energy = _communication_energy(tiny_system, power, bandwidth)
    result = solver.solve(min_rate, power, bandwidth)
    rates = tiny_system.rates_bps(result.power_w, result.bandwidth_hz)
    assert np.all(rates >= min_rate * (1 - 1e-6))
    assert result.bandwidth_hz.sum() <= tiny_system.total_bandwidth_hz * (1 + 1e-6)
    assert np.all(result.power_w <= tiny_system.max_power_w * (1 + 1e-9))
    assert result.communication_energy_j <= start_energy * (1 + 1e-9)
    assert result.feasible


def test_reduces_communication_energy_substantially(tiny_system):
    # A loose deadline leaves plenty of room: the solver should cut the
    # transmission energy well below the max-power starting point.
    power, bandwidth, min_rate = _setup(tiny_system, deadline_factor=4.0)
    solver = SumOfRatiosSolver(tiny_system, 0.9)
    start_energy = _communication_energy(tiny_system, power, bandwidth)
    result = solver.solve(min_rate, power, bandwidth)
    assert result.communication_energy_j < 0.9 * start_energy


def test_auxiliary_variables_satisfy_ratio_conditions(tiny_system):
    power, bandwidth, min_rate = _setup(tiny_system)
    solver = SumOfRatiosSolver(tiny_system, 0.7)
    result = solver.solve(min_rate, power, bandwidth)
    rates = tiny_system.rates_bps(result.power_w, result.bandwidth_hz)
    # At convergence beta_n ~ p_n d_n / G_n and nu_n ~ w1 R_g / G_n (eqs. (22)-(23)).
    target_beta = result.power_w * tiny_system.upload_bits / rates
    target_nu = 0.7 * tiny_system.global_rounds / rates
    assert np.allclose(result.beta, target_beta, rtol=1e-2)
    assert np.allclose(result.nu, target_nu, rtol=1e-2)


def test_history_is_recorded(tiny_system):
    power, bandwidth, min_rate = _setup(tiny_system)
    solver = SumOfRatiosSolver(tiny_system, 0.5, SumOfRatiosConfig(max_iterations=10))
    result = solver.solve(min_rate, power, bandwidth)
    assert len(result.history) >= 1
    assert result.iterations == len(result.history)
    assert np.isfinite(result.history.final_objective)


def test_respects_iteration_budget(tiny_system):
    power, bandwidth, min_rate = _setup(tiny_system)
    solver = SumOfRatiosSolver(
        tiny_system, 0.5, SumOfRatiosConfig(max_iterations=2, residual_tol=0.0, step_tol=0.0)
    )
    result = solver.solve(min_rate, power, bandwidth)
    assert result.iterations <= 2


def test_incumbent_fallback_when_requirements_are_tight(tiny_system):
    # Rate requirements equal to the current rates with a full-bandwidth
    # start: the feasible set is essentially the starting point, and the
    # solver must return something at least as good and still feasible.
    n = tiny_system.num_devices
    power = tiny_system.max_power_w.copy()
    bandwidth = np.full(n, tiny_system.total_bandwidth_hz / n)
    min_rate = tiny_system.rates_bps(power, bandwidth)
    solver = SumOfRatiosSolver(tiny_system, 0.5)
    result = solver.solve(min_rate, power, bandwidth)
    rates = tiny_system.rates_bps(result.power_w, result.bandwidth_hz)
    assert np.all(rates >= min_rate * (1 - 1e-6))
    assert result.communication_energy_j <= _communication_energy(
        tiny_system, power, bandwidth
    ) * (1 + 1e-9)


# -- the warm-start hint of each Algorithm-1 lane ------------------------------


def _recorded_hints(monkeypatch, solver, *args):
    """Run ``solver.solve(*args)``, returning the hint and the method of
    every closed-form attempt, in order."""
    from repro.core import sum_of_ratios

    calls = []
    solve_stacks = sum_of_ratios._solve_sp2_stacks

    def recording(*a, hints=None, **kw):
        stacks = solve_stacks(*a, hints=hints, **kw)
        calls.append((hints[0][0], stacks[0].result(0)))
        return stacks

    monkeypatch.setattr(sum_of_ratios, "_solve_sp2_stacks", recording)
    result = solver.solve(*args)
    return calls, result


def test_each_search_is_hinted_by_the_previous_closed_form_multiplier(
    monkeypatch, tiny_system
):
    """The first search of a run is cold; every later one gets the last
    attempt's polished multiplier and constrained roots."""
    power, bandwidth, min_rate = _setup(tiny_system)
    config = SumOfRatiosConfig(max_iterations=6, residual_tol=0.0, step_tol=0.0)
    solver = SumOfRatiosSolver(tiny_system, 0.5, config)
    calls, _ = _recorded_hints(monkeypatch, solver, min_rate, power, bandwidth)
    assert len(calls) == 6
    assert calls[0][0] is None
    for (hint, _), (_, previous) in zip(calls[1:], calls[:-1]):
        assert previous.method == "kkt" and previous.bandwidth_multiplier > 0.0
        assert hint[0] == previous.bandwidth_multiplier
        assert hint[1] is previous.constrained_roots


def test_hints_do_not_move_the_result(monkeypatch, tiny_system):
    """A run whose searches are all cold returns the same bits."""
    from repro.core import sum_of_ratios

    power, bandwidth, min_rate = _setup(tiny_system)
    solver = SumOfRatiosSolver(tiny_system, 0.5)
    warm = solver.solve(min_rate, power, bandwidth)
    solve_stacks = sum_of_ratios._solve_sp2_stacks
    monkeypatch.setattr(
        sum_of_ratios,
        "_solve_sp2_stacks",
        lambda *a, hints=None, **kw: solve_stacks(*a, **kw),
    )
    cold = solver.solve(min_rate, power, bandwidth)
    assert warm.power_w.tobytes() == cold.power_w.tobytes()
    assert warm.bandwidth_hz.tobytes() == cold.bandwidth_hz.tobytes()
    assert warm.bandwidth_multiplier == cold.bandwidth_multiplier
    assert warm.iterations == cold.iterations


def _lane(system):
    from repro.core.subproblem2 import SystemRows
    from repro.core.sum_of_ratios import _LaneRows

    power, bandwidth, min_rate = _setup(system)
    solver = SumOfRatiosSolver(system, 0.5)
    # A one-run stack's start, its iterate handed to the run as before its
    # fallback ladder.
    rows = _LaneRows(
        SystemRows.of([system]), [system], np.array([solver._scale]), [solver.config],
        min_rate[None], power[None], bandwidth[None],
    )
    rows._write_back(0)
    return rows.lanes[0]


def test_batch_lane_drops_its_hint_after_a_fallback(tiny_system):
    from repro.core.subproblem2 import solve_sp2_v2
    from repro.exceptions import ConvergenceError

    lane = _lane(tiny_system)
    assert lane.hint is None
    kkt = solve_sp2_v2(tiny_system, lane.nu, lane.beta, lane.min_rate)
    assert kkt.method == "kkt" and kkt.constrained_roots is not None

    def fresh_hint():
        lane.resolve_inner(kkt)
        assert lane.hint[0] == kkt.bandwidth_multiplier
        assert lane.hint[1] is kkt.constrained_roots

    # A raised attempt: the numeric fallback answers.
    fresh_hint()
    assert lane.resolve_inner(ConvergenceError("cap")).method == "numeric"
    assert lane.hint is None
    # An infeasible closed-form attempt falls back too.
    fresh_hint()
    infeasible = dataclasses.replace(kkt, feasible=False)
    assert lane.resolve_inner(infeasible).method in ("numeric", "incumbent")
    assert lane.hint is None
    # A slack budget (mu = 0) carries no roots.
    fresh_hint()
    slack = dataclasses.replace(kkt, bandwidth_multiplier=0.0, constrained_roots=None)
    assert lane.resolve_inner(slack) is slack
    assert lane.hint is None


def test_batch_lane_drops_its_hint_after_an_incumbent_fallback(monkeypatch, tiny_system):
    from repro.core import sum_of_ratios
    from repro.core.subproblem2 import solve_sp2_v2
    from repro.exceptions import InfeasibleProblemError

    lane = _lane(tiny_system)
    kkt = solve_sp2_v2(tiny_system, lane.nu, lane.beta, lane.min_rate)
    lane.resolve_inner(kkt)
    assert lane.hint is not None

    def no_numeric(*args, **kwargs):
        raise InfeasibleProblemError("numeric fallback failed")

    monkeypatch.setattr(sum_of_ratios, "solve_sp2_v2_numeric", no_numeric)
    assert lane.resolve_inner(InfeasibleProblemError("x")).method == "incumbent"
    assert lane.hint is None
