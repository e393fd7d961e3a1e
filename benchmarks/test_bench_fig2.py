"""Benchmark regenerating Figure 2 (energy/delay vs maximum transmit power)."""

from repro.experiments import Fig2Config, run_fig2

from .conftest import bench_sweep


def test_bench_fig2():
    config = Fig2Config(
        sweep=bench_sweep(),
        max_power_dbm_grid=(5.0, 8.0, 12.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)),
    )
    table = run_fig2(config)
    print("\n" + table.to_markdown())

    for p_max in config.max_power_dbm_grid:
        rows = {row["w1"]: row for row in table.filter(max_power_dbm=p_max, scheme="proposed")}
        benchmark_row = table.filter(max_power_dbm=p_max, scheme="benchmark").rows[0]
        # Fig. 2a/2b: larger w1 -> lower energy and higher delay.
        assert rows[0.9]["energy_j"] < rows[0.5]["energy_j"] < rows[0.1]["energy_j"]
        assert rows[0.9]["time_s"] > rows[0.5]["time_s"] > rows[0.1]["time_s"]
        # The proposed algorithm's energy stays below the random benchmark.
        assert rows[0.9]["energy_j"] < benchmark_row["energy_j"]
        assert rows[0.5]["energy_j"] < benchmark_row["energy_j"]
