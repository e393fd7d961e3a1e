"""Tests for the SP2_v2 solvers (Theorem 2 / Appendix B and the fallback)."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import subproblem2
from repro.core.subproblem2 import solve_sp2_v2, solve_sp2_v2_numeric, sp2_objective
from repro.core.verify import check_kkt
from repro.exceptions import ConvergenceError, InfeasibleProblemError
from tests.mu_search_reference import rooted_problem
from tests.mu_search_scalar_reference import SEARCHES
from tests.mu_search_vector_reference import mu_search_vector_reference
from tests.sp2_tail_reference import _sp2_prepare


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
    _, _, _, j, constrained = _sp2_prepare(tiny_system, nu, beta, min_rate)
    with SEARCHES[backend]():
        reference = solve_sp2_v2(tiny_system, nu, beta, min_rate)
        assert reference.bandwidth_multiplier > 10.0 * np.median(j[constrained])
        monkeypatch.setattr(subproblem2, "MU_BRACKET_MAX_EXPANSIONS", 0)
        with pytest.raises(ConvergenceError, match="bracketed from above"):
            solve_sp2_v2(tiny_system, nu, beta, min_rate)


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_contraction_exhaustion_raises_convergence_error(
    tiny_system, monkeypatch, backend
):
    nu, beta, min_rate = _loose_setup(tiny_system)
    monkeypatch.setattr(subproblem2, "MU_BRACKET_MAX_CONTRACTIONS", 0)
    with SEARCHES[backend](), pytest.raises(ConvergenceError, match="bracketed from below"):
        solve_sp2_v2(tiny_system, nu, beta, min_rate)


@pytest.mark.parametrize("backend", ["scalar", "vector"])
def test_refinement_exhaustion_raises_convergence_error(
    tiny_system, monkeypatch, backend
):
    nu, beta, min_rate = _binding_setup(tiny_system)
    monkeypatch.setattr(subproblem2, "MU_SEARCH_MAX_ITERATIONS", 0)
    with SEARCHES[backend](), pytest.raises(ConvergenceError, match="did not converge"):
        solve_sp2_v2(tiny_system, nu, beta, min_rate)


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
    solver = SumOfRatiosSolver(tiny_system, 0.5)
    with SEARCHES[backend]():
        result = solver.solve(min_rate, power, bandwidth)
    assert result.history[0].note in ("numeric", "incumbent")


# -- the 1-D multiplier search against its frozen predecessor -----------------
#
# ``tests.mu_search_vector_reference`` is the chunked-scan / seeded-Newton
# search this one replaced.  The polish makes the output independent of the
# path into it, so both must return the same polished ``(mu, x)`` bits or
# raise the same error.  Problems are built around a chosen root
# ``mu_0 * 4**offset`` (``mu_0 = median(j)``) by setting the budget to the
# demand there.  Bits are compared where the root keeps every
# ``c = mu / j >= 1e-3``.  Nearer ``x = 1``, ``x ln x - x + 1`` cancels
# catastrophically, the excess is noisy far above ``mu_tol``, and the polish
# can land on a different double for each entry point (see the multiplier
# allowance in test_backend_parity.py): there the two searches must agree
# on success or failure and, when both succeed, on ``mu`` and ``x`` to a
# relative 1e-7.  The Halley phase counts different iterations from the
# Newton phase it replaced, so its cap is only drawn at 0, where both raise
# on the scan's bracket.


def _search_outcome(search, j, rmin, budget):
    try:
        return search(j, rmin, budget, mu_tol=1e-13)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc)


def _assert_matches_the_frozen_search(j, rmin, budget, caps, c_min=np.inf):
    patched = mock.patch.multiple(subproblem2, **caps) if caps else contextlib.nullcontext()
    with patched:
        got = _search_outcome(subproblem2._mu_search_vector, j, rmin, budget)
        want = _search_outcome(mu_search_vector_reference, j, rmin, budget)
    _assert_same_outcome(got, want, c_min)


def _assert_same_outcome(got, want, c_min):
    """The same polished bits or error, or ``mu``/``x`` to a relative 1e-7
    when some root sits below ``mu / j = 1e-3``."""
    solved = all(isinstance(outcome[1], np.ndarray) for outcome in (got, want))
    if c_min < 1e-3 and solved:
        assert got[0] == pytest.approx(want[0], rel=1e-7)
        np.testing.assert_allclose(got[1], want[1], rtol=1e-7, atol=0.0)
    else:
        as_bytes = [
            (first, second.tobytes() if isinstance(second, np.ndarray) else second)
            for first, second in (got, want)
        ]
        assert as_bytes[0] == as_bytes[1]


_CAPS = st.sampled_from(
    [
        None,
        "MU_BRACKET_MAX_EXPANSIONS",
        "MU_BRACKET_MAX_CONTRACTIONS",
        "MU_SEARCH_MAX_ITERATIONS",
    ]
)


@pytest.mark.hypothesis
@settings(max_examples=150, deadline=None)
@given(
    n_c=st.integers(min_value=1, max_value=6),
    equal_j=st.booleans(),
    data=st.data(),
)
def test_vector_search_matches_the_frozen_search(n_c, equal_j, data):
    """Bit-identical polished ``(mu, x)`` or the same error: roots below
    ``mu_0`` (down to ``c_min`` near 1e-10), inside and beyond the
    bracketing call's ``4**8 * mu_0``, one device, equal ``j``, and every
    cap at 0-9."""
    base = data.draw(st.floats(min_value=-14.0, max_value=-10.0))
    spread = [0.0] * n_c if equal_j else [
        data.draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(n_c)
    ]
    rmin = [data.draw(st.floats(min_value=1e3, max_value=1e6)) for _ in range(n_c)]
    offset = data.draw(st.floats(min_value=-12.0, max_value=12.0))
    j, rmin, budget, c_min = rooted_problem(10.0 ** (base + np.array(spread)), rmin, offset)
    cap = data.draw(_CAPS)
    caps = {}
    if cap is not None:
        top = 0 if cap == "MU_SEARCH_MAX_ITERATIONS" else 9
        caps[cap] = data.draw(st.integers(min_value=0, max_value=top))
        # A root on a scan candidate leaves the excess there at round-off,
        # so a one-row and a nine-row Lambert call may read opposite signs
        # and scan opposite ways; a cap can then fail just one of them.
        assume(abs(offset - round(offset)) > 1e-9)
    _assert_matches_the_frozen_search(j, rmin, budget, caps, c_min)


@pytest.mark.parametrize(
    ("offset", "caps"),
    [
        (-2.3, {}),  # root below mu_0: the ×0.25 scan
        (-2.3, {"MU_BRACKET_MAX_CONTRACTIONS": 2}),
        (0.0, {}),  # root at mu_0
        (3.4, {}),  # inside the bracketing call
        (7.6, {"MU_BRACKET_MAX_EXPANSIONS": 8}),  # closes on the last candidate
        (8.5, {"MU_BRACKET_MAX_EXPANSIONS": 8}),  # exhausts the cap in one call
        (8.5, {"MU_BRACKET_MAX_EXPANSIONS": 9}),  # one candidate more
        (11.2, {}),  # beyond 4**8 * mu_0: the continued ×4 scan
        (3.4, {"MU_BRACKET_MAX_EXPANSIONS": 0}),
        (3.4, {"MU_SEARCH_MAX_ITERATIONS": 0}),
        # c_min 8e-10 and 4e-9, near x = 1: the polished multipliers differ
        # by 5e-8 and 8e-11 relative, inside the 1e-7 allowance.
        (-13.6, {}),
        (-12.4, {}),
    ],
)
def test_vector_search_matches_the_frozen_search_on_pinned_roots(offset, caps):
    j = [2e-12, 7e-12, 1.1e-11, 4e-11, 9e-11]
    j, rmin, budget, c_min = rooted_problem(j, [3e5, 8e4, 5e5, 2e5, 6e5], offset)
    _assert_matches_the_frozen_search(j, rmin, budget, caps, c_min)


@pytest.mark.parametrize(
    ("j", "rmin"),
    [([3e-12], [2e5]), ([5e-12] * 4, [1e5, 2e5, 3e5, 4e5])],
    ids=["one-device", "equal-j"],
)
def test_vector_search_matches_the_frozen_search_on_degenerate_j(j, rmin):
    j, rmin, budget, _ = rooted_problem(j, rmin, 1.7)
    _assert_matches_the_frozen_search(j, rmin, budget, {})


def test_vector_search_takes_the_slack_path_like_the_frozen_search():
    """``j`` around 1e-300 keeps ``x > 1`` at every positive candidate, so
    the ×0.25 scan underflows to ``mu = 0`` before the excess turns
    positive: the budget is slack for the active set."""
    j = np.array([1e-300, 3e-300, 2e-299])
    rmin = np.array([1e-6, 3e-6, 2e-6])
    assert subproblem2._mu_search_vector(j, rmin, 1e6, mu_tol=1e-13) == (0.0, None)
    _assert_matches_the_frozen_search(j, rmin, 1e6, {})


# -- the warm start against the cold search ------------------------------------
#
# A hint is a previous search's polished multiplier and the roots there, for
# a slightly different ``j`` (Algorithm 1 moves ``nu`` between searches).
# The hinted search must return the cold search's polished ``(mu, x)``: bit
# for bit where every root keeps ``mu / j >= 1e-3``, and to a relative 1e-7
# nearer ``x = 1``, as for the frozen search above.


def _hint(j, root, rel, above, jitter):
    """A hint ``rel`` off ``root`` (a factor ``1 + rel`` above or below it),
    its roots solved for ``j`` scaled by ``1 + jitter``."""
    mu = root * (1.0 + rel) if above else root / (1.0 + rel)
    return mu, subproblem2.solve_x_log_x(mu / (j * (1.0 + np.asarray(jitter))))


def _assert_warm_matches_cold(j, rmin, budget, hint, c_min=np.inf, caps=None):
    patched = mock.patch.multiple(subproblem2, **caps) if caps else contextlib.nullcontext()
    with patched:
        cold = _search_outcome(subproblem2._mu_search_vector, j, rmin, budget)
        warm = _search_outcome(
            lambda *a, **kw: subproblem2._mu_search_vector(*a, hint=hint, **kw),
            j,
            rmin,
            budget,
        )
    _assert_same_outcome(warm, cold, c_min)


@pytest.mark.hypothesis
@settings(max_examples=150, deadline=None)
@given(n_c=st.integers(min_value=1, max_value=6), data=st.data())
def test_warm_search_matches_the_cold_search(n_c, data):
    """Hints 1e-9 to 3x off the root, on either side, with roots from a
    ``j`` perturbed by up to 10% per device."""
    base = data.draw(st.floats(min_value=-14.0, max_value=-10.0))
    spread = [data.draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(n_c)]
    rmin = [data.draw(st.floats(min_value=1e3, max_value=1e6)) for _ in range(n_c)]
    offset = data.draw(st.floats(min_value=-12.0, max_value=12.0))
    j, rmin, budget, c_min = rooted_problem(10.0 ** (base + np.array(spread)), rmin, offset)
    root = float(np.median(j)) * 4.0**offset
    rel = 10.0 ** data.draw(st.floats(min_value=-9.0, max_value=np.log10(2.0)))
    jitter = [data.draw(st.floats(min_value=-0.1, max_value=0.1)) for _ in range(n_c)]
    hint = _hint(j, root, rel, data.draw(st.booleans()), jitter)
    _assert_warm_matches_cold(j, rmin, budget, hint, c_min)


_J5 = [2e-12, 7e-12, 1.1e-11, 4e-11, 9e-11]
_RMIN5 = [3e5, 8e4, 5e5, 2e5, 6e5]


@pytest.mark.parametrize("rel", [0.0, 1e-9, 1e-5, 1e-2, 0.3, 2.0])
@pytest.mark.parametrize("above", [True, False])
def test_warm_search_matches_the_cold_search_on_pinned_hints(rel, above):
    j, rmin, budget, _ = rooted_problem(_J5, _RMIN5, 3.4)
    root = float(np.median(j)) * 4.0**3.4
    hint = _hint(j, root, rel, above, [0.05, -0.02, 0.0, 0.1, -0.1])
    _assert_warm_matches_cold(j, rmin, budget, hint)


def _warm_bracketed(j, rmin, budget, hint) -> bool:
    (warm,), _, _ = subproblem2._warm_start(
        [hint], j[None], (rmin * subproblem2._LN2)[None], np.array([budget]), 1e-13
    )
    return bool(warm)


_COLD_CAPS = [
    {},
    {"MU_BRACKET_MAX_EXPANSIONS": 0},
    {"MU_BRACKET_MAX_EXPANSIONS": 3},
    {"MU_BRACKET_MAX_CONTRACTIONS": 1},
    {"MU_SEARCH_MAX_ITERATIONS": 0},
]


@pytest.mark.parametrize("caps", _COLD_CAPS)
@pytest.mark.parametrize("offset", [-2.3, 3.4, 11.2])
@pytest.mark.parametrize(
    "make_hint",
    [
        # Far on the wrong side: the Halley step cannot reach the root.
        lambda j, root: (root * 1e4, subproblem2.solve_x_log_x(root * 1e4 / j)),
        lambda j, root: (root * 1e-4, subproblem2.solve_x_log_x(root * 1e-4 / j)),
        # Not finite, not positive, or roots that do not fit j.
        lambda j, root: (np.nan, np.ones_like(j)),
        lambda j, root: (np.inf, np.ones_like(j)),
        lambda j, root: (0.0, np.ones_like(j)),
        lambda j, root: (-root, np.ones_like(j)),
        lambda j, root: (root, np.full_like(j, np.nan)),
        lambda j, root: (root, np.full_like(j, np.inf)),
        lambda j, root: (root, subproblem2.solve_x_log_x(root / j)[:-1]),
        lambda j, root: (root, subproblem2.solve_x_log_x(root / j)[None]),
    ],
    ids=[
        "far-above", "far-below", "nan", "inf", "zero", "negative",
        "nan-roots", "inf-roots", "short-roots", "2-d-roots",
    ],
)
def test_unusable_hints_take_the_cold_path(make_hint, offset, caps):
    """No bracket from the hint: the cold search's result or error string."""
    j, rmin, budget, _ = rooted_problem(_J5, _RMIN5, offset)
    hint = make_hint(j, float(np.median(j)) * 4.0**offset)
    assert not _warm_bracketed(j, rmin, budget, hint)
    _assert_warm_matches_cold(j, rmin, budget, hint, caps=caps)


def test_a_converged_warm_start_skips_the_bracketing_caps():
    """A hint at the root brackets it at once, so the cold start's caps,
    which raise on these inputs without a hint, never come into play."""
    j, rmin, budget, _ = rooted_problem(_J5, _RMIN5, 3.4)
    mu, x = subproblem2._mu_search_vector(j, rmin, budget, mu_tol=1e-13)
    caps = {"MU_BRACKET_MAX_EXPANSIONS": 0, "MU_SEARCH_MAX_ITERATIONS": 0}
    with mock.patch.multiple(subproblem2, **caps):
        with pytest.raises(ConvergenceError):
            subproblem2._mu_search_vector(j, rmin, budget, mu_tol=1e-13)
        warm = subproblem2._mu_search_vector(j, rmin, budget, mu_tol=1e-13, hint=(mu, x))
    assert warm[0] == mu and warm[1].tobytes() == x.tobytes()
