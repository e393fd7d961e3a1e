"""Lambert-W helpers used by the Appendix-B closed forms.

Theorem 2 / Appendix B of the paper express the KKT solution of SP2_v2 in
terms of the principal branch of the Lambert-W function: the per-device
SNR factor ``x = 1 + p g / (N0 B)`` satisfies

    x * ln(x) - x + 1 = mu / j,        j = nu * d * N0 / g,   mu >= 0,

whose solution is ``x = (mu - j) / (j * W0((mu - j) / (e * j)))`` for
``mu != j`` and ``x = e`` for ``mu = j``.  The solvers never evaluate W0
itself: they find that root with one guarded Newton step
(:func:`_newton_step`), looped by :func:`_newton_all` (stop when every
element meets the step test) or :func:`_newton_rows` (each row stops on
its own test, so a row equals the 1-D solve of that row bitwise).  The
step test is relative, ``|x_new - x| <= tol * x_new``: every iterate is
``>= 1`` (the seeds are floored at ``1 + 1e-15`` and a step never moves
more than half-way down to 1), so ``x_new`` is its own
``max(1, |x_new|)``; a NaN iterate never passes the test and an infinite
one passes it only from a finite predecessor.  The
kernels differ in their seed and iteration cap: the scalar oracle's
(:func:`solve_x_log_x` and its rows twin), the vector backend's cold seed
(:func:`lambert_solve_vector` and its rows twin), and the multiplier
search's private :func:`_lambert_solve_seeded`, which starts from a seed
the search predicts and skips validation.  The tests cross-check the
Newton roots against that closed form.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConvergenceError

#: Residual floor of the Newton exhaustion check, in units of machine
#: epsilon: near ``x = 1`` the map ``x ln x - x + 1`` cancels
#: catastrophically, so the *step* tolerance can be unattainable (iterates
#: jitter by ~1e-13 at residuals that already sit at round-off).  A lane
#: counts as converged when its residual is within this many eps of the
#: expression's magnitude — only larger residuals are genuine failures.
_RESIDUAL_FLOOR_EPS = 64.0


def _check_lambert_residual(
    x: np.ndarray, rhs: np.ndarray, max_iter: int, name: str
) -> None:
    """Raise :class:`ConvergenceError` if a finite lane's residual is large.

    Called only when the Newton loop exhausted ``max_iter`` without meeting
    the step tolerance.  Non-finite right-hand sides are ignored (they are
    masked out of the result by the callers' contract), and lanes whose
    residual ``|x ln x - x + 1 - rhs|`` sits at the round-off floor are
    converged in every sense that matters — the step criterion was simply
    unattainable at that conditioning.
    """
    residual = np.abs(x * np.log(x) - x + 1.0 - rhs)
    floor = _RESIDUAL_FLOOR_EPS * np.finfo(float).eps * np.maximum(1.0, np.abs(rhs))
    stalled = np.isfinite(rhs) & (residual > floor)
    if np.any(stalled):
        raise ConvergenceError(
            f"{name} did not converge in {max_iter} Newton iterations for "
            f"{int(np.sum(stalled))} lane(s); max residual "
            f"{float(np.max(residual[stalled])):.3g}"
        )

__all__ = [
    "solve_x_log_x",
    "solve_x_log_x_rows",
    "lambert_solve_vector",
    "lambert_solve_rows",
]


def _newton_step(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One guarded Newton step on ``x ln x - x + 1 = c``, kept above 1.

    The derivative ``ln x`` is floored at ``1e-12`` near ``x = 1``, and the
    update never moves more than half-way down to 1.
    """
    log_x = np.log(x)
    f = x * log_x - x + 1.0 - c
    df = np.maximum(log_x, 1e-12)
    return np.maximum(x - f / df, 0.5 * (x + 1.0))


def _nonnegative(rhs: np.ndarray | float) -> np.ndarray:
    """``rhs`` as a float array, round-off negatives clamped to 0.

    Raises :class:`ValueError` on a genuinely negative entry.
    """
    c = np.asarray(rhs, dtype=float)
    if np.any(c < -1e-12):
        raise ValueError("rhs must be non-negative")
    return np.maximum(c, 0.0)


def _oracle_start(rhs: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Validated right-hand sides and the seed of the scalar oracle.

    For small ``rhs`` the root is ``x ~ 1 + sqrt(2 rhs)``, for large ``rhs``
    it is ``x ~ rhs / ln(rhs)``; the seed takes whichever branch applies.
    """
    c = _nonnegative(rhs)
    small = 1.0 + np.sqrt(2.0 * c)
    with np.errstate(divide="ignore", invalid="ignore"):
        large = np.where(c > np.e, c / np.maximum(np.log(c), 1.0), small)
    return c, np.maximum(np.where(c > np.e, large, small), 1.0 + 1e-15)


def solve_x_log_x(
    rhs: np.ndarray | float,
    *,
    tol: float = 1e-14,
    max_iter: int = 100,
) -> np.ndarray:
    """Solve ``x * ln(x) - x + 1 = rhs`` for ``x >= 1`` given ``rhs >= 0``.

    The left-hand side is zero at ``x = 1`` and strictly increasing for
    ``x > 1`` (its derivative is ``ln x``), so the root is unique.  A damped
    Newton iteration from :func:`_oracle_start`'s seed keeps the iterate
    above 1.
    """
    c, x = _oracle_start(rhs)
    return _newton_all(x, c, tol, max_iter, "lambert_solve")


def _cold_start(rhs: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Validated right-hand sides and the cold seed of the vector kernels.

    The seed is third-order accurate on both asymptotic branches
    (``x = 1 + sqrt(2 c) + c/3`` for small ``c``; ``x ~ c / ln c`` corrected
    by ``ln ln c / ln c`` for large ``c``), so Newton converges in a handful
    of steps.
    """
    c = _nonnegative(rhs)
    small = 1.0 + np.sqrt(2.0 * c) + c / 3.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.log(np.maximum(c, np.e))
        large = c / t * (1.0 + np.log(t) / t)
    x = np.where(c > np.e, np.maximum(large, 1.0 + 1e-12), small)
    return c, np.maximum(x, 1.0 + 1e-15)


def lambert_solve_vector(
    rhs: np.ndarray | float,
    *,
    tol: float = 1e-14,
    max_iter: int = 60,
) -> np.ndarray:
    """Batched solve of ``x * ln(x) - x + 1 = rhs`` for arrays of any shape.

    This is the vector backend's workhorse: where :func:`solve_x_log_x` is
    tuned for the scalar solver's one-probe-at-a-time call pattern (and kept
    float-for-float stable as the reference oracle), this variant accepts an
    arbitrarily shaped batch — e.g. a ``(num_probes, num_devices)`` grid of
    right-hand sides from a batched multiplier scan — and runs one guarded
    Newton iteration over the whole array at once, from the cold seed of
    :func:`_cold_start`.
    """
    c, x = _cold_start(rhs)
    return _newton_all(x, c, tol, max_iter, "lambert_solve_vector")


def _newton_all(
    x: np.ndarray, rhs: np.ndarray, tol: float, max_iter: int, name: str
) -> np.ndarray:
    """Newton loop that stops once every element meets the step test."""
    for _ in range(max_iter):  # repro-lint: disable=RL002 -- exhaustion raises via _check_lambert_residual
        x_new = _newton_step(x, rhs)
        if (np.abs(x_new - x) <= tol * x_new).all():
            x = x_new
            break
        x = x_new
    else:
        _check_lambert_residual(x, rhs, max_iter, name)
    return np.where(rhs == 0.0, 1.0, x)


def _newton_rows(
    x: np.ndarray, rhs: np.ndarray, tol: float, max_iter: int, name: str
) -> np.ndarray:
    """Shared per-row Newton loop of the ``*_rows`` kernels.

    Each row iterates until *its own* step criterion holds over that row's
    elements, then freezes; a frozen row's values are never touched again.
    Because a 1-D call's global ``.all()`` stop *is* the row's stop, every
    row of the result is bitwise equal to a stand-alone 1-D solve of that
    row — which is what makes the batched multiplier search's masked-lane
    isolation exact rather than approximate.
    """
    live = None  # indices of the rows still iterating; None while all are
    # (rows converge at similar depths, so the common phase skips indexing)
    xa, ra = x, rhs
    for _ in range(max_iter):  # repro-lint: disable=RL002 -- exhaustion raises via _check_lambert_residual
        x_new = _newton_step(xa, ra)
        done = (np.abs(x_new - xa) <= tol * x_new).all(axis=1)
        if live is None:
            x = x_new
            if done.size and not done.any():
                xa = x_new
                continue
            live = np.flatnonzero(~done)
        else:
            x[live] = x_new
            live = live[~done]
        if live.size == 0:
            break
        xa, ra = x_new[~done], ra[~done]
    else:
        stalled = slice(None) if live is None else live
        _check_lambert_residual(x[stalled], rhs[stalled], max_iter, name)
    return np.where(rhs == 0.0, 1.0, x)


def solve_x_log_x_rows(
    rhs: np.ndarray,
    *,
    tol: float = 1e-14,
    max_iter: int = 100,
) -> np.ndarray:
    """Per-row variant of :func:`solve_x_log_x` for a ``(lanes, n)`` batch.

    Same seed and Newton update as the 1-D kernel; only the stopping rule
    changes, from one global test to an independent per-row one (see
    :func:`_newton_rows`).  Row ``i`` of the result is therefore bitwise
    equal to ``solve_x_log_x(rhs[i])``, and no row's iterates depend on any
    other row — the property the batched root polish relies on for exact
    per-drop parity.
    """
    if np.ndim(rhs) != 2:
        raise ValueError("solve_x_log_x_rows expects a (lanes, n) array")
    c, x = _oracle_start(rhs)
    return _newton_rows(x, c, tol, max_iter, "solve_x_log_x_rows")


def lambert_solve_rows(
    rhs: np.ndarray,
    *,
    tol: float = 1e-14,
    max_iter: int = 60,
) -> np.ndarray:
    """Per-row variant of :func:`lambert_solve_vector` for ``(lanes, n)``.

    Same cold seed and guarded Newton update as the any-shape kernel, but
    each row stops on its own criterion (see :func:`_newton_rows`): row
    ``i`` equals ``lambert_solve_vector(rhs[i])`` bitwise and is unaffected
    by its neighbours.  This is the bracketing kernel of the batched
    multiplier search, where each row probes one lane's candidate against
    that lane's ``(n,)`` problem data.
    """
    if np.ndim(rhs) != 2:
        raise ValueError("lambert_solve_rows expects a (lanes, n) array")
    c, x = _cold_start(rhs)
    return _newton_rows(x, c, tol, max_iter, "lambert_solve_rows")


def _lambert_solve_seeded(rhs: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Search-only solve of ``x ln x - x + 1 = rhs`` from the caller's seed.

    The multiplier searches' Halley phase already knows each root to a few
    digits (the previous iterate's root plus its first-order step), so this
    kernel skips what the public kernels do on entry: it checks nothing and
    computes no cold seed.  ``rhs`` must be finite and ``>= 0``, and ``x0``
    finite and of ``rhs``'s shape; the seed is floored at ``1 + 1e-15``
    like the cold ones.  A 2-D ``rhs`` runs :func:`_newton_rows`, so each
    row stops on its own test and is bitwise independent of its neighbours;
    a 1-D one is a single row, whose test is the global one.  Tolerance
    and iteration cap are :func:`lambert_solve_vector`'s defaults;
    exhaustion raises through :func:`_check_lambert_residual`.
    """
    x = np.maximum(x0, 1.0 + 1e-15)
    if rhs.ndim == 1:
        return _newton_all(x, rhs, 1e-14, 60, "_lambert_solve_seeded")
    return _newton_rows(x, rhs, 1e-14, 60, "_lambert_solve_seeded")
