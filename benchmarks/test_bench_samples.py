"""Benchmark for the samples-per-device sweep (Section VII-B, text)."""

from repro.experiments import SamplesConfig, run_samples_sweep

from .conftest import bench_sweep


def test_bench_samples():
    config = SamplesConfig(sweep=bench_sweep(), samples_grid=(250, 500, 1000))
    table = run_samples_sweep(config)
    print("\n" + table.to_markdown())

    energies = table.column("energy_j")
    times = table.column("time_s")
    # The paper: samples per device are positively correlated with both
    # energy and completion time.
    assert energies == sorted(energies)
    assert times == sorted(times)
