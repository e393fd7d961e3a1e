"""The scenario subsystem end to end: build + one solve per family.

For every registered scenario family, (a) realise one drop through the
registry and (b) run one proposed-algorithm solve on that drop.
"""

import pytest

from repro import (
    JointProblem,
    ProblemWeights,
    ResourceAllocator,
    ScenarioSpec,
    build_scenario_spec,
    scenario_families,
)
from repro.core.allocator import AllocatorConfig

#: Enough devices to exercise the per-family machinery (clusters, classes,
#: wall counting) while keeping the full suite in seconds.
NUM_DEVICES = 20


def _spec(family: str) -> ScenarioSpec:
    return ScenarioSpec(family, {"num_devices": NUM_DEVICES, "seed": 0})


@pytest.mark.parametrize("family", scenario_families())
def test_bench_scenario_build(family):
    system = build_scenario_spec(_spec(family))
    assert system.num_devices == NUM_DEVICES


@pytest.mark.parametrize("family", scenario_families())
def test_bench_scenario_solve(family):
    system = build_scenario_spec(_spec(family))
    allocator = ResourceAllocator(AllocatorConfig(max_iterations=8))
    problem = JointProblem(system, ProblemWeights.from_energy_weight(0.5))
    result = allocator.solve(problem)
    assert result.energy_j > 0.0 and result.completion_time_s > 0.0
