"""Differential tests: the multiplier search against the scalar oracle.

The library's multiplier search (1-D for one lane, rows for a lockstep
group) is only shippable because it is continuously fuzzed against the
probe-sequential scalar search it replaced, which the test suite keeps as an
oracle (:func:`tests.mu_search_scalar_reference.scalar_oracle` routes every
search through it), on two levels:

* **end-to-end** — Algorithm 2 on every registered scenario family, whose
  whole ``summary()`` must be equal under the oracle (both searches polish
  the bandwidth multiplier onto the same exact double, so every downstream
  iterate matches bit for bit);
* **SP2-level (Hypothesis)** — randomized ``(system, nu, beta, r_min)``
  instances solved by both, compared directly *and* certified against the
  KKT residuals of Theorem 2, so agreement can never be mutual-bug
  agreement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JointProblem, ProblemWeights
from repro.core.allocator import ResourceAllocator
from repro.core.subproblem2 import solve_sp2_v2
from repro.core.verify import check_kkt
from repro.exceptions import ConvergenceError, InfeasibleProblemError
from repro.scenarios import ScenarioSpec, scenario_families
from tests.mu_search_scalar_reference import SEARCHES, scalar_oracle


def _build(family: str, *, num_devices: int = 8, seed: int = 0):
    return ScenarioSpec.from_mapping(
        {"family": family, "num_devices": num_devices, "seed": seed}
    ).build()


def _sp2_inputs(system, rate_scale: np.ndarray, energy_weight: float = 0.5):
    """A Theorem-1 style ``(nu, beta, r_min)`` triple for one drop."""
    power = 0.5 * system.max_power_w
    bandwidth = np.full(
        system.num_devices, system.total_bandwidth_hz / (2 * system.num_devices)
    )
    rates = system.rates_bps(power, bandwidth)
    beta = power * system.upload_bits / rates
    nu = energy_weight * system.global_rounds / rates
    return nu, beta, rates * rate_scale


# -- end-to-end parity over every scenario family -----------------------------

@pytest.mark.parametrize("family", sorted(scenario_families()))
@pytest.mark.parametrize("energy_weight", [0.9, 0.3])
def test_algorithm2_backend_parity_per_family(family, energy_weight):
    system = _build(family, num_devices=8, seed=11)
    problem = JointProblem(system, ProblemWeights.from_energy_weight(energy_weight))
    with scalar_oracle():
        scalar = ResourceAllocator().solve(problem)
    vector = ResourceAllocator().solve(problem)
    assert vector.summary() == scalar.summary(), f"{family}: the oracle moved the summary"


def test_backend_parity_with_deadline_constrained_problem():
    system = _build("paper", num_devices=8, seed=5)
    reference = ResourceAllocator().solve(
        JointProblem(system, ProblemWeights.from_energy_weight(0.5))
    )
    deadline = reference.completion_time_s * 1.2
    problem = JointProblem(
        system, ProblemWeights.from_energy_weight(1.0), deadline_s=deadline
    )
    with scalar_oracle():
        scalar = ResourceAllocator().solve(problem)
    vector = ResourceAllocator().solve(problem)
    assert vector.summary() == scalar.summary()


# -- SP2-level differential fuzz (Hypothesis) ---------------------------------

@pytest.mark.hypothesis
@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(sorted(scenario_families())),
    seed=st.integers(min_value=0, max_value=500),
    num_devices=st.integers(min_value=2, max_value=12),
    energy_weight=st.sampled_from([0.1, 0.5, 0.9]),
    scale_lo=st.floats(min_value=0.0, max_value=0.9),
    scale_width=st.floats(min_value=0.0, max_value=0.6),
)
def test_sp2_differential_fuzz_with_kkt_certificates(
    family, seed, num_devices, energy_weight, scale_lo, scale_width
):
    """The search and its oracle agree on SP2_v2 *and* both satisfy the KKT system."""
    system = _build(family, num_devices=num_devices, seed=seed)
    rng = np.random.default_rng(seed)
    rate_scale = scale_lo + scale_width * rng.random(num_devices)
    nu, beta, rmin = _sp2_inputs(system, rate_scale, energy_weight)

    results, errors = {}, {}
    for side, route in SEARCHES.items():
        try:
            with route():
                results[side] = solve_sp2_v2(system, nu, beta, rmin)
        except (InfeasibleProblemError, ConvergenceError) as exc:
            errors[side] = type(exc).__name__

    # Either both sides solve the instance or both reject it.
    assert set(results) | set(errors) == set(SEARCHES)
    assert not (results and errors), (
        f"the sides disagree on solvability: solved={sorted(results)}, "
        f"raised={errors}"
    )
    if errors:
        assert errors["scalar"] == errors["vector"]
        return

    scalar, vector = results["scalar"], results["vector"]
    assert vector.feasible == scalar.feasible
    # Near-vanishing rate requirements push x -> 1, where evaluating
    # x ln x - x + 1 in doubles cancels catastrophically: the multiplier's
    # root is then only conditioned to ~1e-6 relative (and loses all
    # relative meaning once mu falls below round-off of the per-device
    # scale j = nu d N0 / g), although the bandwidths it controls are
    # negligible there.  The decision variables below are held tight; mu
    # itself gets the conditioning allowance, with the absolute term a
    # decade above the 1e-12*j round-off boundary — right at it, the two
    # sides can land a factor apart while every decision variable
    # still agrees bitwise.
    j_scale = float(
        np.median(nu * system.upload_bits * system.noise_psd_w_per_hz / system.gains)
    )
    assert vector.bandwidth_multiplier == pytest.approx(
        scalar.bandwidth_multiplier, rel=1e-4, abs=1e-11 * j_scale
    )
    assert vector.objective == pytest.approx(scalar.objective, rel=1e-9, abs=1e-12)
    np.testing.assert_allclose(
        vector.power_w, scalar.power_w, rtol=1e-7, atol=1e-12
    )
    np.testing.assert_allclose(
        vector.bandwidth_hz, scalar.bandwidth_hz, rtol=1e-7, atol=1e-6
    )

    # Agreement alone could be a shared bug: certify both against the KKT
    # residuals of Theorem 2 (loosened only for the numeric fallback, whose
    # golden-section bandwidth split is coarser than the closed form).
    for side, result in results.items():
        certificate = check_kkt(system, nu, beta, rmin, result)
        if result.feasible:
            problems = certificate.problems(
                1e-6 if result.method == "kkt" else 1e-4
            )
            assert not problems, f"{side}: {'; '.join(problems)}"
