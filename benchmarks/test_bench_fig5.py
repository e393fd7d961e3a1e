"""Benchmark regenerating Figure 5 (energy/delay vs cell radius)."""

from repro.experiments import Fig5Config, run_fig5

from .conftest import bench_sweep


def test_bench_fig5():
    config = Fig5Config(
        sweep=bench_sweep(num_devices=20),
        radius_km_grid=(0.1, 0.7, 1.4),
        num_devices_grid=(20, 40),
    )
    table = run_fig5(config)
    print("\n" + table.to_markdown())

    for num_devices in config.num_devices_grid:
        times = [row["time_s"] for row in table.filter(num_devices=num_devices)]
        # Fig. 5b: the completion time is positively correlated with the
        # radius (weaker channels force slower uploads); the end of the sweep
        # is clearly above its start.
        assert times[-1] > times[0]
        # Fig. 5a deliberately has no asserted energy trend: the paper itself
        # notes there is no clear correlation between energy and the radius.
        energies = [row["energy_j"] for row in table.filter(num_devices=num_devices)]
        assert all(e > 0 for e in energies)
