"""Benchmark regenerating Figure 4 (energy/delay vs number of devices)."""

from repro.experiments import Fig4Config, run_fig4

from .conftest import bench_sweep


def test_bench_fig4():
    config = Fig4Config(
        sweep=bench_sweep(),
        num_devices_grid=(20, 40, 80),
        total_samples=25_000,
        weight_pairs=((0.9, 0.1), (0.5, 0.5)),
    )
    table = run_fig4(config)
    print("\n" + table.to_markdown())

    for w1 in (0.9, 0.5):
        energies = [row["energy_j"] for row in table.filter(w1=w1)]
        times = [row["time_s"] for row in table.filter(w1=w1)]
        # Fig. 4a: with a fixed 25k-sample corpus split equally, more devices
        # means less computation per device and lower total energy.
        assert energies[0] > energies[-1]
        # Fig. 4b: the overall delay trend is also decreasing.
        assert times[0] > times[-1]
