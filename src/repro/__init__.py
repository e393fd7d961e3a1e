"""Reproduction of *Joint Optimization of Energy Consumption and Completion
Time in Federated Learning* (Zhou, Zhao, Han, Guet — IEEE ICDCS 2022).

The package is organised as follows:

* :mod:`repro.core` — the paper's contribution: the joint optimization
  problem and the alternating resource-allocation algorithm (Algorithms 1
  and 2).
* :mod:`repro.wireless` — the single-cell FDMA uplink substrate (topology,
  path loss, shadowing, fading, Shannon rates).
* :mod:`repro.devices` — device CPU / radio / battery models and fleet
  generation.
* :mod:`repro.solvers` — the from-scratch convex-optimization toolkit the
  closed-form solvers are built on.
* :mod:`repro.baselines` — the comparison schemes of Section VII (random
  benchmark, communication-only, computation-only, delay minimisation,
  Scheme 1 of Yang et al.).
* :mod:`repro.fl` — a FedAvg simulator used to connect the resource
  allocation to actual training runs in the examples.
* :mod:`repro.experiments` — runners that regenerate every figure of the
  paper's evaluation section.

Quickstart
----------
>>> from repro import build_paper_scenario, JointProblem, ProblemWeights, ResourceAllocator
>>> system = build_paper_scenario(num_devices=10, seed=1)
>>> problem = JointProblem(system, ProblemWeights(energy=0.5, time=0.5))
>>> result = ResourceAllocator().solve(problem)
>>> result.energy_j > 0 and result.completion_time_s > 0
True
"""

from .core.allocation import ResourceAllocation
from .core.allocator import AllocationResult, AllocatorConfig, ResourceAllocator
from .core.problem import JointProblem, ProblemWeights
from .scenarios import (
    ScenarioConfig,
    ScenarioSpec,
    build_paper_scenario,
    build_scenario,
    build_scenario_spec,
    get_scenario_family,
    register_scenario_family,
    scenario_families,
)
from .system import SystemModel

__version__ = "1.0.0"

__all__ = [
    "ResourceAllocation",
    "AllocationResult",
    "AllocatorConfig",
    "ResourceAllocator",
    "JointProblem",
    "ProblemWeights",
    "ScenarioConfig",
    "ScenarioSpec",
    "build_paper_scenario",
    "build_scenario",
    "build_scenario_spec",
    "get_scenario_family",
    "register_scenario_family",
    "scenario_families",
    "SystemModel",
    "__version__",
]
