"""Tests for the SP2_v2 solvers (Theorem 2 / Appendix B and the fallback)."""

import numpy as np
import pytest

from repro.core import subproblem2
from repro.core.subproblem2 import solve_sp2_v2, solve_sp2_v2_numeric, sp2_objective
from repro.core.verify import check_kkt
from repro.exceptions import ConvergenceError, InfeasibleProblemError


def _setup(system, *, energy_weight=0.5, bandwidth_fraction=0.5, deadline_factor=1.0):
    """Build (nu, beta, min_rate) from a feasible starting allocation."""
    n = system.num_devices
    power = system.max_power_w.copy()
    bandwidth = np.full(n, system.total_bandwidth_hz * bandwidth_fraction / n)
    rates = system.rates_bps(power, bandwidth)
    upload = system.upload_bits / rates
    compute = system.cycles_per_round / system.max_frequency_hz
    deadline = float(np.max(upload + compute)) * deadline_factor
    min_rate = system.upload_bits / np.maximum(deadline - compute, 1e-9)
    beta = power * system.upload_bits / rates
    nu = energy_weight * system.global_rounds / rates
    return power, bandwidth, nu, beta, min_rate


def test_kkt_solution_satisfies_its_certificate(tiny_system, assert_kkt):
    _, _, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.5)
    result = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    assert result.feasible
    # Primal feasibility, stationarity and complementary slackness in one
    # named-residual certificate (replaces the former ad-hoc tolerances).
    assert_kkt(check_kkt(tiny_system, nu, beta, min_rate, result))


def test_kkt_improves_over_the_starting_point(tiny_system):
    power, bandwidth, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.5)
    start = sp2_objective(tiny_system, nu, beta, power, bandwidth)
    result = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    assert result.objective <= start + 1e-9


def test_kkt_and_numeric_agree(tiny_system):
    _, _, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.3)
    kkt = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    numeric = solve_sp2_v2_numeric(tiny_system, nu, beta, min_rate)
    scale = max(abs(numeric.objective), 1e-9)
    # The closed-form KKT path must never be meaningfully worse than the
    # numeric fallback, and the two must land in the same ballpark.
    assert kkt.objective <= numeric.objective + 0.05 * scale
    assert abs(kkt.objective - numeric.objective) / scale < 0.5


def test_numeric_solution_satisfies_its_certificate(tiny_system, assert_kkt):
    _, _, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.3)
    result = solve_sp2_v2_numeric(tiny_system, nu, beta, min_rate)
    assert result.feasible
    # The golden-section bandwidth split is coarser than the closed form,
    # so its stationarity residual gets a looser (but still tight) bound.
    assert_kkt(
        check_kkt(tiny_system, nu, beta, min_rate, result), stationarity=1e-4
    )


def test_zero_rate_requirements_are_handled(tiny_system):
    _, _, nu, beta, _ = _setup(tiny_system)
    min_rate = np.zeros(tiny_system.num_devices)
    result = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    assert result.feasible
    # No rate constraints: all multipliers vanish.
    assert np.allclose(result.rate_multipliers, 0.0)


def test_tight_rate_requirements_still_feasible(tiny_system):
    # Deadline exactly at the initial round time: the requirements equal the
    # initial rates and the feasible set is razor thin.
    _, _, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.0)
    result = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    rates = tiny_system.rates_bps(result.power_w, result.bandwidth_hz)
    assert np.all(rates >= min_rate * (1 - 1e-6))


def test_impossible_requirements_raise(tiny_system):
    _, _, nu, beta, _ = _setup(tiny_system)
    min_rate = np.full(tiny_system.num_devices, 1e9)  # far beyond the budget
    with pytest.raises(InfeasibleProblemError):
        solve_sp2_v2_numeric(tiny_system, nu, beta, min_rate)


def test_kkt_multipliers_are_nonnegative(tiny_system):
    _, _, nu, beta, min_rate = _setup(tiny_system, deadline_factor=1.2)
    result = solve_sp2_v2(tiny_system, nu, beta, min_rate)
    assert result.bandwidth_multiplier >= 0.0
    assert np.all(result.rate_multipliers >= 0.0)


def test_objective_helper_matches_definition(tiny_system):
    power, bandwidth, nu, beta, _ = _setup(tiny_system)
    rates = tiny_system.rates_bps(power, bandwidth)
    expected = float(np.sum(nu * (power * tiny_system.upload_bits - beta * rates)))
    assert sp2_objective(tiny_system, nu, beta, power, bandwidth) == pytest.approx(expected)


# -- iteration-cap exhaustion ------------------------------------------------
#
# The multiplier search's three loops are capped by named module constants;
# exhausting any of them must raise ConvergenceError instead of silently
# returning a half-converged multiplier.  Each cap is monkeypatched to zero
# (or one) to force its exhaustion path deterministically.

def _binding_setup(system):
    """Inputs whose rate constraints bind (demand exceeds the start bracket)."""
    _, _, nu, beta, min_rate = _setup(system, deadline_factor=1.05)
    return nu, beta, min_rate


def _loose_setup(system):
    """Inputs whose demand is slack at the starting multiplier (contraction)."""
    _, _, nu, beta, min_rate = _setup(system, deadline_factor=50.0)
    return nu, beta, min_rate


def _demanding_setup(system):
    """Inputs whose multiplier root lies far above ``median(j)``, the point
    every search starts from: each device must reach 90% of the rate an
    equal split of the whole budget at full power would give it."""
    n = system.num_devices
    _, _, nu, beta, _ = _setup(system, bandwidth_fraction=1.0)
    equal_split = np.full(n, system.total_bandwidth_hz / n)
    min_rate = 0.9 * system.rates_bps(system.max_power_w, equal_split)
    return nu, beta, min_rate


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_expansion_exhaustion_raises_convergence_error(
    tiny_system, monkeypatch, backend
):
    # The root lies above the starting multiplier, so the excess is
    # positive there and the bracket must expand upward — which the
    # zeroed cap forbids.
    nu, beta, min_rate = _demanding_setup(tiny_system)
    _, _, _, j, constrained = subproblem2._sp2_prepare(tiny_system, nu, beta, min_rate)
    reference = solve_sp2_v2(tiny_system, nu, beta, min_rate, backend=backend)
    assert reference.bandwidth_multiplier > 10.0 * np.median(j[constrained])
    monkeypatch.setattr(subproblem2, "MU_BRACKET_MAX_EXPANSIONS", 0)
    with pytest.raises(ConvergenceError, match="bracketed from above"):
        solve_sp2_v2(tiny_system, nu, beta, min_rate, backend=backend)


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_contraction_exhaustion_raises_convergence_error(
    tiny_system, monkeypatch, backend
):
    nu, beta, min_rate = _loose_setup(tiny_system)
    monkeypatch.setattr(subproblem2, "MU_BRACKET_MAX_CONTRACTIONS", 0)
    with pytest.raises(ConvergenceError, match="bracketed from below"):
        solve_sp2_v2(tiny_system, nu, beta, min_rate, backend=backend)


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_refinement_exhaustion_raises_convergence_error(
    tiny_system, monkeypatch, backend
):
    nu, beta, min_rate = _binding_setup(tiny_system)
    monkeypatch.setattr(subproblem2, "MU_SEARCH_MAX_ITERATIONS", 0)
    with pytest.raises(ConvergenceError, match="did not converge"):
        solve_sp2_v2(tiny_system, nu, beta, min_rate, backend=backend)


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_exhaustion_falls_back_to_the_numeric_solver(
    tiny_system, monkeypatch, backend
):
    """Algorithm 1 treats a cap exhaustion like closed-form infeasibility."""
    from repro.core.sum_of_ratios import SumOfRatiosSolver

    # Algorithm 1 starts (beta, nu) at the exact ratios of its starting
    # point, so its first SP2_v2 solve sees the binding inputs of
    # ``_binding_setup`` and exhausts the zeroed refinement cap.
    power, bandwidth, _, _, min_rate = _setup(tiny_system, deadline_factor=1.05)
    monkeypatch.setattr(subproblem2, "MU_SEARCH_MAX_ITERATIONS", 0)
    solver = SumOfRatiosSolver(tiny_system, 0.5, backend=backend)
    result = solver.solve(min_rate, power, bandwidth)
    assert result.history[0].note in ("numeric", "incumbent")
