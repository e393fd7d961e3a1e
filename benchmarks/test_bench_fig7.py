"""Benchmark regenerating Figure 7 (joint vs single-resource optimisation)."""

from repro.experiments import Fig7Config, run_fig7

from .conftest import bench_sweep


def test_bench_fig7():
    config = Fig7Config(
        sweep=bench_sweep(max_power_dbm=10.0),
        deadline_s_grid=(100.0, 125.0, 150.0),
    )
    table = run_fig7(config)
    print("\n" + table.to_markdown())

    proposed_series = []
    for deadline in config.deadline_s_grid:
        proposed = table.filter(deadline_s=deadline, scheme="proposed").rows[0]
        comm = table.filter(deadline_s=deadline, scheme="communication_only").rows[0]
        comp = table.filter(deadline_s=deadline, scheme="computation_only").rows[0]
        proposed_series.append(proposed["energy_j"])
        # Fig. 7: the joint optimisation never spends more energy than either
        # single-resource scheme (tiny numerical ties allowed).
        assert proposed["energy_j"] <= comm["energy_j"] * 1.01
        assert proposed["energy_j"] <= comp["energy_j"] * 1.01
        assert proposed["feasible"] == 1.0
    # Energy falls monotonically as the completion-time budget loosens.
    assert proposed_series == sorted(proposed_series, reverse=True)
