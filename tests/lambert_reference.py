"""Reference Lambert-W for the tests: scipy's principal branch.

The library never evaluates W0 (it solves ``x ln x - x + 1 = rhs`` by
Newton); the tests cross-check those roots against the closed form
through this wrapper, which is why scipy is a test-only dependency.
"""

from __future__ import annotations

import numpy as np


def lambert_w_principal(z: np.ndarray | float) -> np.ndarray:
    """Principal branch ``W0(z)`` for real ``z >= -1/e``, returned as float.

    Values marginally below ``-1/e`` (from round-off) are clamped to the
    branch point, where ``W0 = -1``.
    """
    from scipy import special

    z_arr = np.asarray(z, dtype=float)
    clamped = np.maximum(z_arr, -1.0 / np.e)
    w = np.real(special.lambertw(clamped, k=0))
    # Exactly at (or within round-off of) the branch point scipy can return
    # NaN; the limit value there is -1.
    return np.where(np.isnan(w), -1.0, w)
