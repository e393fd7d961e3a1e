"""Benchmark regenerating Figure 8 (proposed algorithm vs Scheme 1)."""

from repro.experiments import Fig8Config, run_fig8

from .conftest import bench_sweep


def test_bench_fig8():
    config = Fig8Config(
        sweep=bench_sweep(),
        max_power_dbm_grid=(5.0, 8.0, 12.0),
        deadline_s_grid=(80.0, 150.0),
    )
    table = run_fig8(config)
    print("\n" + table.to_markdown())

    average_gap = {}
    for deadline in config.deadline_s_grid:
        gaps = []
        for p_max in config.max_power_dbm_grid:
            proposed = table.filter(
                deadline_s=deadline, max_power_dbm=p_max, scheme="proposed"
            ).rows[0]
            scheme1 = table.filter(
                deadline_s=deadline, max_power_dbm=p_max, scheme="scheme1"
            ).rows[0]
            # Fig. 8: the proposed algorithm is below Scheme 1 at every point.
            assert proposed["energy_j"] <= scheme1["energy_j"] * (1 + 1e-6)
            gaps.append(scheme1["energy_j"] - proposed["energy_j"])
        average_gap[deadline] = sum(gaps) / len(gaps)
    # The gap widens as the completion-time budget tightens.
    assert average_gap[80.0] > average_gap[150.0]
