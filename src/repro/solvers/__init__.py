"""From-scratch convex-optimization toolkit.

The paper solves its convex subproblems with CVX (MATLAB).  That package is
not available here, and every subproblem in the paper has either a
closed-form KKT solution or a one-dimensional dual, so this package
implements the required numerical machinery directly:

* :mod:`repro.solvers.bisection` — vectorised bisection root finding
  (the minimum bandwidth that meets each device's rate).
* :mod:`repro.solvers.scalar` — golden-section minimisation of
  one-dimensional convex functions: scalar, vectorised and lockstep rows.
* :mod:`repro.solvers.waterfilling` — water-filling style solvers for
  separable concave maximisation over a simplex (Subproblem 1's dual).
* :mod:`repro.solvers.lambert` — Lambert-W helpers (Theorem 2 / Appendix B).
* :mod:`repro.solvers.boxlp` — linear programs with box constraints and one
  budget constraint (problem (A.6)), one per row of a stack.
* :mod:`repro.solvers.dual_decomposition` — generic dual decomposition for
  separable convex problems coupled by a single budget constraint (numeric
  fallback / cross-check for the closed-form SP2_v2 solver).
* :mod:`repro.solvers.newton` — damped Newton-like root finding used by the
  sum-of-ratios outer loop (Algorithm 1), one line search per row.
"""

from .bisection import bisect_vector
from .boxlp import solve_box_budget_lp_rows
from .dual_decomposition import minimize_separable_with_budget
from .lambert import lambert_solve_vector, solve_x_log_x
from .newton import DampedNewtonRows, damped_newton_step_rows, row_norms
from .scalar import golden_section_scalar, golden_section_vector
from .waterfilling import maximize_concave_on_simplex, power_waterfilling

__all__ = [
    "bisect_vector",
    "solve_box_budget_lp_rows",
    "minimize_separable_with_budget",
    "lambert_solve_vector",
    "solve_x_log_x",
    "DampedNewtonRows",
    "damped_newton_step_rows",
    "row_norms",
    "golden_section_scalar",
    "golden_section_vector",
    "maximize_concave_on_simplex",
    "power_waterfilling",
]
