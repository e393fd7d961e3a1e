"""End-to-end integration tests across the whole stack."""

import pytest

from repro import (
    JointProblem,
    ProblemWeights,
    ResourceAllocator,
    build_paper_scenario,
)
from repro.baselines import random_benchmark, scheme1
from repro.core.allocator import AllocatorConfig
from repro.fl import (
    Client,
    FedAvgServer,
    FederatedSimulation,
    SoftmaxRegression,
    iid_partition,
    make_classification_dataset,
)


def test_full_paper_scenario_end_to_end():
    """Build the paper's default system, optimise it, and verify the headline
    qualitative claims on one drop."""
    system = build_paper_scenario(num_devices=25, seed=2024)
    allocator = ResourceAllocator()

    results = {}
    for w1 in (0.9, 0.5, 0.1):
        problem = JointProblem(system, ProblemWeights.from_energy_weight(w1))
        results[w1] = allocator.solve(problem)

    # Claim (i): the weight controls the energy/delay trade-off.
    assert results[0.9].energy_j < results[0.5].energy_j < results[0.1].energy_j
    assert results[0.9].completion_time_s > results[0.5].completion_time_s > results[0.1].completion_time_s

    # Claim (ii): the proposed allocation beats the random benchmark.
    problem = JointProblem(system, ProblemWeights(energy=0.5, time=0.5))
    benchmark = random_benchmark(problem, rng=0)
    assert results[0.5].energy_j < benchmark.energy_j
    assert results[0.5].objective < benchmark.objective


def test_deadline_pipeline_against_scheme1():
    """The Fig. 8 pipeline on one drop: proposed vs Scheme 1 under deadlines."""
    system = build_paper_scenario(num_devices=20, seed=7)
    allocator = ResourceAllocator()
    gaps = []
    for deadline in (90.0, 150.0):
        problem = JointProblem(system, ProblemWeights(energy=1.0, time=0.0), deadline_s=deadline)
        proposed = allocator.solve(problem)
        baseline = scheme1(problem)
        assert proposed.feasible and baseline.feasible
        assert proposed.completion_time_s <= deadline * (1 + 1e-6)
        assert baseline.completion_time_s <= deadline * (1 + 1e-6)
        assert proposed.energy_j <= baseline.energy_j * (1 + 1e-6)
        gaps.append(baseline.energy_j - proposed.energy_j)
    assert gaps[0] >= gaps[1]  # tighter deadline, bigger advantage


def test_allocation_feeds_the_fl_simulator():
    """Resource allocation plugged into actual FedAvg training."""
    system = build_paper_scenario(num_devices=10, seed=3)
    problem = JointProblem(system, ProblemWeights(energy=0.7, time=0.3))
    allocation = ResourceAllocator(AllocatorConfig(max_iterations=5)).solve(problem).allocation

    dataset = make_classification_dataset(1200, num_features=8, num_classes=3, rng=3)
    parts = iid_partition(dataset.num_train, system.num_devices, rng=3)
    clients = [
        Client(client_id=i, features=dataset.train_x[idx], labels=dataset.train_y[idx])
        for i, idx in enumerate(parts)
    ]
    model = SoftmaxRegression(dataset.num_features, dataset.num_classes, rng=3)
    server = FedAvgServer(model, clients, test_x=dataset.test_x, test_y=dataset.test_y, rng=3)
    report = FederatedSimulation(system, server, allocation).run(
        global_rounds=15, local_iterations=5
    )
    assert report.final_accuracy > 0.55
    assert report.total_energy_j > 0.0
    assert report.total_time_s == pytest.approx(
        15 * allocation.round_time_s(system), rel=1e-9
    )


def test_reproducibility_of_the_whole_pipeline():
    """Same seed, same numbers — the entire pipeline is deterministic."""
    def solve_once():
        system = build_paper_scenario(num_devices=12, seed=99)
        problem = JointProblem(system, ProblemWeights(energy=0.5, time=0.5))
        result = ResourceAllocator().solve(problem)
        return result.energy_j, result.completion_time_s, result.objective

    first = solve_once()
    second = solve_once()
    assert first == second


def test_scaling_the_schedule_scales_the_cost():
    """Energy and delay are proportional to R_g for a fixed allocation."""
    system = build_paper_scenario(num_devices=10, seed=5, global_rounds=100)
    problem = JointProblem(system, ProblemWeights(energy=0.5, time=0.5))
    result = ResourceAllocator().solve(problem)
    allocation = result.allocation

    doubled = system.with_schedule(global_rounds=200)
    assert doubled.total_energy_j(
        allocation.power_w, allocation.bandwidth_hz, allocation.frequency_hz
    ) == pytest.approx(2.0 * result.energy_j)
    assert doubled.total_completion_time_s(
        allocation.power_w, allocation.bandwidth_hz, allocation.frequency_hz
    ) == pytest.approx(2.0 * result.completion_time_s)


def test_larger_cells_cost_more_time():
    """Fig. 5's qualitative claim on a single pair of drops."""
    allocator = ResourceAllocator(AllocatorConfig(max_iterations=5))
    near = build_paper_scenario(num_devices=10, seed=11, radius_km=0.1)
    far = build_paper_scenario(num_devices=10, seed=11, radius_km=1.4)
    near_result = allocator.solve(JointProblem(near, ProblemWeights(0.5, 0.5)))
    far_result = allocator.solve(JointProblem(far, ProblemWeights(0.5, 0.5)))
    assert far_result.completion_time_s > near_result.completion_time_s
