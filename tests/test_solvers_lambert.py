"""Tests for the Lambert-W helpers behind the Appendix-B closed forms."""

import numpy as np
import pytest

from repro.solvers import solve_x_log_x
from tests.lambert_reference import lambert_w_principal


def test_lambert_w_known_values():
    assert lambert_w_principal(0.0) == pytest.approx(0.0)
    assert lambert_w_principal(np.e) == pytest.approx(1.0)
    assert lambert_w_principal(-1.0 / np.e) == pytest.approx(-1.0, abs=1e-6)


def test_lambert_w_defining_identity():
    for z in (0.1, 0.5, 2.0, 10.0, 100.0):
        w = float(lambert_w_principal(z))
        assert w * np.exp(w) == pytest.approx(z, rel=1e-10)


def test_lambert_w_clamps_below_branch_point():
    # Values marginally below -1/e (round-off) must not produce NaN.
    value = lambert_w_principal(-1.0 / np.e - 1e-18)
    assert np.isfinite(value)
    assert value == pytest.approx(-1.0, abs=1e-6)


def test_solve_x_log_x_zero_rhs_gives_one():
    assert solve_x_log_x(0.0) == pytest.approx(1.0)


def test_solve_x_log_x_satisfies_equation():
    rhs = np.array([1e-6, 0.01, 0.5, 1.0, 5.0, 50.0, 1e4])
    x = solve_x_log_x(rhs)
    assert np.all(x >= 1.0)
    residual = x * np.log(x) - x + 1.0
    assert np.allclose(residual, rhs, rtol=1e-8, atol=1e-12)


def test_solve_x_log_x_is_monotone_in_rhs():
    rhs = np.linspace(0.0, 20.0, 50)
    x = solve_x_log_x(rhs)
    assert np.all(np.diff(x) >= -1e-12)


def test_solve_x_log_x_agrees_with_lambert_w_formula():
    # x = (mu - j) / (j W((mu-j)/(e j))) for mu != j, from Appendix B.
    j = 2.0
    for mu in (0.5, 1.0, 3.0, 10.0):
        x_newton = float(solve_x_log_x(mu / j))
        argument = (mu - j) / (np.e * j)
        w = float(lambert_w_principal(argument))
        if abs(w) > 1e-12:
            x_lambert = (mu - j) / (j * w)
            assert x_newton == pytest.approx(x_lambert, rel=1e-6)


def test_solve_x_log_x_rejects_negative_rhs():
    with pytest.raises(ValueError):
        solve_x_log_x(-0.5)
