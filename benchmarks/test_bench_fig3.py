"""Benchmark regenerating Figure 3 (energy/delay vs maximum CPU frequency)."""

from repro.experiments import Fig3Config, run_fig3

from .conftest import bench_sweep


def test_bench_fig3():
    config = Fig3Config(
        sweep=bench_sweep(),
        max_frequency_ghz_grid=(0.5, 1.0, 2.0),
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
    )
    table = run_fig3(config)
    print("\n" + table.to_markdown())

    bench_energy = [row["energy_j"] for row in table.filter(scheme="benchmark")]
    bench_delay = [row["time_s"] for row in table.filter(scheme="benchmark")]
    # Fig. 3a: the benchmark's energy grows with the frequency cap while its
    # delay falls (it always runs at the maximum frequency).
    assert bench_energy[0] < bench_energy[-1]
    assert bench_delay[0] > bench_delay[-1]

    # Fig. 3a/3b: the proposed algorithm's curves flatten — going from 1 GHz
    # to 2 GHz changes its energy far less than it changes the benchmark's.
    for w1 in (0.9, 0.5):
        proposed = [row["energy_j"] for row in table.filter(scheme="proposed", w1=w1)]
        assert abs(proposed[-1] - proposed[-2]) <= abs(bench_energy[-1] - bench_energy[-2])
        # And it always spends less energy than the benchmark at 2 GHz.
        assert proposed[-1] < bench_energy[-1]
