"""The paper's primary contribution: joint energy/completion-time optimization.

Modules
-------
``allocation``
    The decision variables ``(p, B, f)`` and the metrics derived from them.
``problem``
    Problem (8)/(9): the weighted objective, constraints, feasibility checks
    and initial feasible points.
``subproblem1``
    Subproblem 1 (CPU frequency and round deadline), solved exactly by a
    one-dimensional primal search and, paper-faithfully, through the dual
    water-filling of problem (17).
``subproblem2``
    The inner convex problem SP2_v2 of Theorem 1, solved in closed form via
    Theorem 2 / Appendix B (Lambert-W + box LP) with a numeric
    dual-decomposition fallback.
``sum_of_ratios``
    Algorithm 1: the Newton-like (Jong) iteration over the auxiliary
    variables ``(beta, nu)`` that makes SP2_v2 equivalent to Subproblem 2.
``uplink_delay``
    Bandwidth/power allocation minimising the slowest upload (used when the
    energy weight is zero and by the delay-minimisation baseline of [14]).
``allocator``
    Algorithm 2: the alternating resource-allocation algorithm that is the
    paper's headline contribution.
``convergence``
    Iteration histories recorded by the iterative solvers.
``verify``
    KKT-residual certificates: feasibility + stationarity + complementary
    slackness checks the tests (and the scalar-oracle differential harness) use
    to certify candidate solutions without re-solving.
"""

from .allocation import ResourceAllocation
from .allocator import AllocatorConfig, AllocationResult, ResourceAllocator
from .convergence import ConvergenceHistory, IterationRecord
from .problem import JointProblem, ProblemWeights
from .subproblem1 import Subproblem1Result, solve_subproblem1
from .subproblem2 import SP2Result, solve_sp2_v2, solve_sp2_v2_numeric
from .sum_of_ratios import SumOfRatiosConfig, SumOfRatiosResult, SumOfRatiosSolver
from .uplink_delay import minimize_max_upload_time
from .verify import KKTCertificate, check_kkt, check_primal, check_sp1

__all__ = [
    "ResourceAllocation",
    "AllocatorConfig",
    "AllocationResult",
    "ResourceAllocator",
    "ConvergenceHistory",
    "IterationRecord",
    "JointProblem",
    "ProblemWeights",
    "Subproblem1Result",
    "solve_subproblem1",
    "SP2Result",
    "solve_sp2_v2",
    "solve_sp2_v2_numeric",
    "SumOfRatiosConfig",
    "SumOfRatiosResult",
    "SumOfRatiosSolver",
    "minimize_max_upload_time",
    "KKTCertificate",
    "check_kkt",
    "check_primal",
    "check_sp1",
]
