"""Benchmark regenerating Figure 6 (energy/delay vs the FL schedule)."""

from repro.experiments import Fig6Config, run_fig6

from .conftest import bench_sweep


def test_bench_fig6():
    config = Fig6Config(
        sweep=bench_sweep(),
        local_iterations_grid=(10, 50, 110),
        global_rounds_grid=(50, 400),
    )
    table = run_fig6(config)
    print("\n" + table.to_markdown())

    for global_rounds in config.global_rounds_grid:
        rows = table.filter(global_rounds=global_rounds).rows
        energies = [row["energy_j"] for row in rows]
        times = [row["time_s"] for row in rows]
        # Fig. 6: both metrics grow with the number of local iterations.
        assert energies == sorted(energies)
        assert times == sorted(times)
    # And with the number of global rounds at fixed local iterations.
    low = table.filter(global_rounds=50, local_iterations=10).rows[0]
    high = table.filter(global_rounds=400, local_iterations=10).rows[0]
    assert high["energy_j"] > low["energy_j"]
    assert high["time_s"] > low["time_s"]
