"""The benchmark's own tests (run with ``python -m pytest perfbench/tests``).

The smoke tests run every workload briefly, untraced and traced (``sweep``
and ``fl`` still run each of their input sets once), so the whole file
takes a few minutes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gates
from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics, percentile
from perfbench.probe import REFERENCE_S, HostSpeed
from perfbench.run import _batch_metrics, _parse_importtime
from perfbench.workloads import INPUT_SETS, WORKLOADS, RequestMix, base_seeds, serve_schedule

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _mix_prefix(seed: int, count: int = 200) -> list[dict]:
    mix = RequestMix(seed)
    return [mix.next() for _ in range(count)]


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for workload in ("sweep", "fl"):
        assert base_seeds(workload, 3) == base_seeds(workload, 3)
        assert base_seeds(workload, 3) != base_seeds(workload, 4)
        assert len(set(base_seeds(workload, 3))) == INPUT_SETS
    assert _mix_prefix(3) == _mix_prefix(3)
    assert _mix_prefix(3) != _mix_prefix(4)
    assert serve_schedule(RequestMix(3), 10.0, 5.0) == serve_schedule(RequestMix(3), 10.0, 5.0)
    assert serve_schedule(RequestMix(3), 10.0, 5.0) != serve_schedule(RequestMix(4), 10.0, 5.0)


def test_default_seed_starts_from_the_stock_configuration():
    assert base_seeds("sweep", 0)[0] == base_seeds("fl", 0)[0] == 0
    assert 0 not in base_seeds("sweep", 1)


def test_request_mix_is_one_quarter_fresh_and_stratified():
    bodies = _mix_prefix(5, 400)
    fresh = {json.dumps(b, sort_keys=True) for b in bodies}
    assert abs(len(fresh) / len(bodies) - 0.25) < 0.02
    assert any(b.get("solver_kind") == "baseline" for b in bodies)
    first_fresh = list({json.dumps(b, sort_keys=True): b for b in bodies}.values())[:6]
    kinds = {(b["scenario"]["family"], b["energy_weight"]) for b in first_fresh}
    assert len(kinds) == 6  # every family x energy-weight pair once per six fresh drops


def test_host_speed_scales_by_the_probes_around_an_interval(tmp_path):
    # Reference speed until t=10, half speed after.
    samples = [(t / 10, REFERENCE_S if t < 100 else 2 * REFERENCE_S) for t in range(200)]
    (tmp_path / "probe.txt").write_text("".join(f"{t!r} {c!r}\n" for t, c in samples))
    speed = HostSpeed(tmp_path / "probe.txt")
    assert speed.scale(1.0, 2.0, 3.0) == pytest.approx(1.0)
    assert speed.scale(1.0, 15.0, 16.0) == pytest.approx(0.5)
    assert speed.scale(1.0, 50.0, 51.0) == pytest.approx(0.5)  # no probe near: nearest three


def test_batch_metrics_scale_segments_and_take_the_median_repetition():
    # Three passes of one input set, two tasks and a tail each; the second
    # pass ran on a host at half speed, which its probes saw.
    fast, slow = [REFERENCE_S] * 4, [2 * REFERENCE_S] * 4
    passes = [
        {"input_set": 0, "tasks": 2, "failed": 0, "rounds": [], "segments_s": [0.1, 0.2, 0.1], "probes_s": fast},
        {"input_set": 0, "tasks": 2, "failed": 0, "rounds": [], "segments_s": [0.2, 0.4, 0.2], "probes_s": slow},
        {"input_set": 0, "tasks": 2, "failed": 0, "rounds": [], "segments_s": [0.1, 0.3, 0.1], "probes_s": fast},
    ]
    metrics = _batch_metrics("sweep", passes)
    assert metrics["throughput_per_s"] == pytest.approx(2 / 0.4)
    assert metrics["p50_ms"] == pytest.approx(100.0)
    assert metrics["p90_ms"] == pytest.approx(200.0)
    unscaled = _batch_metrics("sweep", passes, scaled=False)
    assert unscaled["p90_ms"] == pytest.approx(300.0)


def test_metric_names_units_and_counts():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    assert len(names) == len(set(names))
    for name, unit, better, *_ in END_TO_END + PER_LAYER:
        assert NAME.match(name) and re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert UNIT.match(unit), unit
        assert better in ("higher", "lower")
    assert ("setup_s", "s", "lower") == END_TO_END[0][:3]
    assert max(bound for *_, bound in END_TO_END) <= 0.25


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER
    ]
    bound = max(m["bound"] for m in spec["end_to_end"])
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == bound


def test_percentile_is_nearest_rank_and_sorts_failures_last():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([1.0] * 9 + [float("inf")], 0.9) == 1.0
    assert percentile([1.0] * 8 + [float("inf")] * 2, 0.9) == float("inf")


def test_layer_metrics_self_time_and_nesting():
    # allocator solve [0, 10] containing sp2 [1, 7] containing lambert [2, 3],
    # plus a nested (same-layer) sp2 call that must not count as a call.
    spans = [
        (3, 2, "solvers.lambert", "lambert_solve_rows", 2.0, 3.0, False, {"elements": 12}),
        (4, 2, "sp2", "solve_sp2_v2", 4.0, 5.0, True, None),
        (2, 1, "sp2", "SumOfRatiosSolver.solve", 1.0, 7.0, False, None),
        (1, 0, "allocator", "ResourceAllocator.solve", 0.0, 10.0, False,
         {"lanes": 1, "outer": 3, "inner": 9}),
    ]
    metrics = layer_metrics(spans)
    assert metrics["allocator.solve_calls"] == 1.0
    assert metrics["allocator.self_s"] == pytest.approx(4.0)
    assert metrics["sp2.calls"] == 1.0 and metrics["sp2.s"] == pytest.approx(6.0)
    assert metrics["solvers.lambert.elements"] == 12.0
    assert metrics["allocator.outer_iterations"] == 3.0
    assert {name for name, *_ in PER_LAYER} - set(metrics) <= {
        "cli.import_s",
        "cli.import_scipy_s",
        "serve.hit_share",
        "serve.generator_lag_ms",
        "trace.overhead_share",
    }


def test_importtime_parsing_counts_outermost_scipy_only():
    report = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       scipy._lib",
            "import time:       200 |        300 |     scipy",
            "import time:        50 |        400 |   repro.solvers.lambert",
            "import time:        10 |       1000 | repro.cli",
        ]
    )
    assert _parse_importtime(report) == (pytest.approx(0.001), pytest.approx(0.0003))


def test_gates_fail_on_a_wrong_digest():
    assert gates.check_csv_digest("sweep", "0" * 64)
    assert not gates.check_csv_digest("sweep", gates.EXPECTED_CSV_SHA256["sweep"])


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_passes_gates_and_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "0", "--seconds", "2", "--trace", trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    specs = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == [name for name, *_ in specs]
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]}
    for name, unit, *_ in specs:
        assert printed[name] == unit == result["metrics"][name]["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
