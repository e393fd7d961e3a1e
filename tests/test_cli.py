"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert set(printed) == set(EXPERIMENTS)


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "fig99"])


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_samples_and_save_outputs(tmp_path, capsys, monkeypatch):
    # Swap in a fast stub experiment so the CLI test stays quick.
    from repro.experiments.results import ResultTable

    def fake_runner(config=None):
        table = ResultTable(name="stub", columns=["x", "y"])
        table.add_row(x=1, y=2.0)
        return table

    monkeypatch.setitem(EXPERIMENTS, "samples", fake_runner)
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    assert main(["run", "samples", "--output", str(json_path), "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "| x | y |" in out
    payload = json.loads(json_path.read_text())
    assert payload["rows"] == [{"x": 1, "y": 2.0}]
    assert csv_path.read_text().startswith("x,y")


def test_paper_flag_uses_paper_config(monkeypatch, capsys):
    import repro.experiments.fig2 as fig2_module

    captured = {}

    def fake_run(config=None):
        captured["config"] = config
        from repro.experiments.results import ResultTable

        table = ResultTable(name="stub", columns=["a"])
        table.add_row(a=1)
        return table

    monkeypatch.setitem(EXPERIMENTS, "fig2", fake_run)
    assert main(["run", "fig2", "--paper"]) == 0
    assert captured["config"] == fig2_module.Fig2Config.paper()
    capsys.readouterr()


def test_list_scenarios_prints_every_family(capsys):
    from repro import scenario_families

    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_families():
        assert f"{name}:" in out
    assert "defaults:" in out


def test_scenario_flag_points_the_sweep_at_the_family(monkeypatch, capsys):
    captured = {}

    def fake_run(config=None):
        captured["config"] = config
        from repro.experiments.results import ResultTable

        table = ResultTable(name="stub", columns=["a"])
        table.add_row(a=1)
        return table

    monkeypatch.setitem(EXPERIMENTS, "samples", fake_run)
    assert main([
        "run", "samples",
        "--scenario", "hotspot",
        "--scenario-param", "num_clusters=5",
        "--scenario-param", "label=edge",
    ]) == 0
    capsys.readouterr()
    sweep = captured["config"].sweep
    assert sweep.scenario_family == "hotspot"
    # JSON value parsed as int, non-JSON falls back to the raw string.
    assert sweep.scenario_extra == {"num_clusters": 5, "label": "edge"}


def test_scenario_flag_rejects_unknown_family(monkeypatch, capsys):
    assert main(["run", "samples", "--scenario", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario family" in err and "paper" in err


def test_scenario_param_requires_key_value(capsys):
    assert main(["run", "samples", "--scenario", "hotspot",
                 "--scenario-param", "oops"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_bench_is_not_a_subcommand(capsys):
    # The perf harness is perfbench/; the CLI has no benchmark command.
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--quick"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_fl_command_runs_the_closed_loop(tmp_path, capsys):
    json_path = tmp_path / "fl.json"
    csv_path = tmp_path / "fl.csv"
    assert (
        main(
            [
                "fl",
                "--rounds", "2",
                "--devices", "5",
                "--local-iterations", "2",
                "--output", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr()
    assert "| round |" in out.out
    payload = json.loads(json_path.read_text())
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["selected"] == 5
    assert "accuracy" in out.err
    assert csv_path.read_text().startswith("round,")


def test_fl_command_quick_flag_overrides_scale(capsys):
    assert main(["fl", "--quick", "--rounds", "50"]) == 0
    out = capsys.readouterr().out
    table_lines = [line for line in out.splitlines() if line.startswith("|")]
    # --quick pins 2 rounds whatever --rounds says: header + divider + 2 rows.
    assert len(table_lines) == 4


def test_fl_command_rejects_unknown_scenario_and_scheme(capsys):
    assert main(["fl", "--quick", "--scenario", "nope"]) == 2
    assert "unknown scenario family" in capsys.readouterr().err
    assert main(["fl", "--quick", "--scheme", "nope"]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_fl_command_dynamic_fleet_flags(capsys):
    assert (
        main(
            [
                "fl",
                "--quick",
                "--churn", "poisson:arrive=0.4,depart=0.3,absent=0.25",
                "--battery", "50",
                "--battery-policy", "graceful",
                "--estimate-profiles",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    # The dynamic columns only appear when the layer is on.
    assert "| fleet |" in out or "fleet" in out.splitlines()[0]


def test_fl_command_churn_json_spec(capsys):
    spec = json.dumps(
        {"mode": "events", "initial_absent": [5], "events": {"2": {"arrive": [5]}}}
    )
    assert main(["fl", "--quick", "--churn", spec]) == 0
    assert "fleet" in capsys.readouterr().out


def test_fl_command_frozen_fleet_output_has_no_dynamic_columns(capsys):
    assert main(["fl", "--quick"]) == 0
    assert "fleet" not in capsys.readouterr().out


def test_parse_churn_spec_shorthand_and_errors():
    from repro.cli import _parse_churn_spec
    from repro.exceptions import ConfigurationError

    spec = _parse_churn_spec("poisson:arrive=0.4,depart=0.3,absent=0.25")
    assert spec == {
        "mode": "poisson",
        "arrive_rate": 0.4,
        "depart_rate": 0.3,
        "initial_absent_fraction": 0.25,
    }
    assert _parse_churn_spec("poisson") == {"mode": "poisson"}
    assert _parse_churn_spec('{"mode": "events"}') == {"mode": "events"}
    with pytest.raises(ConfigurationError, match="poisson"):
        _parse_churn_spec("weibull:rate=1")
    with pytest.raises(ConfigurationError, match="KEY=VALUE"):
        _parse_churn_spec("poisson:arrive=0.4,typo=1")
    with pytest.raises(ConfigurationError, match="object"):
        _parse_churn_spec("[1, 2]")


def test_fl_command_selection_and_backend_flags(capsys):
    flags = ["fl", "--quick", "--selection", "fastest-k", "--select-k", "2",
             "--fading", "none", "--scheme", "static"]
    assert main(flags) == 0
    out = capsys.readouterr().out
    assert "| 2 |" in out
    # The SP2 backend flag is retired: there is one multiplier search.
    with pytest.raises(SystemExit) as excinfo:
        main([*flags, "--backend", "scalar"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig2", "--backend", "vector"],
        ["fl", "--backend", "vector"],
        ["serve", "--backend", "vector"],
    ],
    ids=["run", "fl", "serve"],
)
def test_the_retired_sp2_backend_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --backend vector" in capsys.readouterr().err


# -- repro store / --shard ---------------------------------------------------


def _seed_store(root, backend, indices=range(3)):
    from repro.store import open_store

    store = open_store(root, backend)
    for i in indices:
        store.put(
            f"{i:02x}" * 32,
            {"scenario": {"seed": i}},
            {"objective": 1.5 * i, "iterations": 3 + i},
            {"mu": 0.5 * i},
        )
    store.flush()
    return store


def test_run_parser_accepts_store_and_shard_flags():
    args = build_parser().parse_args(
        ["run", "fig2", "--store", "columnar", "--shard", "1/4"]
    )
    assert args.store == "columnar"
    assert args.shard == "1/4"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig2", "--store", "parquet"])


def test_shard_and_store_flags_configure_the_runner(monkeypatch):
    from repro import cli as cli_module

    captured = {}

    class FakeRunner:
        def __init__(self, jobs=1, **kwargs):
            captured.update(kwargs, jobs=jobs)
            self.jobs = jobs
            from repro.experiments.runner import SweepStats

            self.last_stats = SweepStats()

    monkeypatch.setattr(cli_module, "SweepRunner", FakeRunner)
    args = build_parser().parse_args(
        ["run", "samples", "--store", "columnar", "--shard", "1/4"]
    )
    cli_module._make_runner("samples", args)
    assert captured["store_backend"] == "columnar"
    assert captured["shard"] == "1/4"


def test_run_rejects_malformed_shard_spec(capsys):
    assert main(["run", "samples", "--no-cache", "--shard", "4/4"]) == 2
    assert "shard" in capsys.readouterr().err


def test_store_stat_reports_backend_and_entries(tmp_path, capsys):
    _seed_store(tmp_path, "columnar")
    assert main(["store", "stat", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "backend: columnar" in out
    assert "entries: 3" in out
    assert "log entries: 3" in out


def test_store_query_writes_csv(tmp_path, capsys):
    _seed_store(tmp_path / "cache", "json")
    target = tmp_path / "cols.csv"
    assert main(
        [
            "store", "query", str(tmp_path / "cache"),
            "--columns", "objective,missing",
            "--output", str(target),
        ]
    ) == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "digest,objective,missing"
    assert len(lines) == 4
    assert lines[1].startswith("00" * 32)
    assert lines[1].endswith(",0.0,")  # absent column reads as empty


def test_store_compact_folds_the_log(tmp_path, capsys):
    from repro.store import open_store

    _seed_store(tmp_path, "columnar")
    assert main(["store", "compact", str(tmp_path)]) == 0
    assert "compacted 3 entries" in capsys.readouterr().out
    assert open_store(tmp_path).stat().log_entries == 0

    # The JSON backend has nothing to compact and says so.
    _seed_store(tmp_path / "json", "json")
    assert main(["store", "compact", str(tmp_path / "json")]) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_store_migrate_and_merge_round_trip(tmp_path, capsys):
    from repro.store import open_store

    _seed_store(tmp_path / "a", "json", indices=[0, 1])
    _seed_store(tmp_path / "b", "json", indices=[2])

    assert main(
        ["store", "migrate", str(tmp_path / "a"), str(tmp_path / "a-col")]
    ) == 0
    assert "migrated 2 entries" in capsys.readouterr().out
    assert open_store(tmp_path / "a-col").backend == "columnar"

    assert main(
        [
            "store", "merge", str(tmp_path / "merged"),
            str(tmp_path / "a"), str(tmp_path / "b"),
        ]
    ) == 0
    assert "merged 3 entries" in capsys.readouterr().out
    merged = open_store(tmp_path / "merged")
    assert len(merged) == 3
    assert merged.get_entry("00" * 32) == open_store(tmp_path / "a").get_entry("00" * 32)


def test_store_migrate_backend_flag_picks_the_destination_store(tmp_path, capsys):
    # The store commands keep their own --backend: the destination layout.
    from repro.store import open_store

    _seed_store(tmp_path / "a", "columnar", indices=[0, 1])
    assert main(
        ["store", "migrate", str(tmp_path / "a"), str(tmp_path / "a-json"), "--backend", "json"]
    ) == 0
    assert "-> json:" in capsys.readouterr().out
    migrated = open_store(tmp_path / "a-json")
    assert migrated.backend == "json"
    assert migrated.get_entry("00" * 32) == open_store(tmp_path / "a").get_entry("00" * 32)


def test_store_stat_on_missing_root_fails_cleanly(tmp_path, capsys):
    assert main(["store", "stat", str(tmp_path / "nowhere")]) == 0  # empty store
    assert "entries: 0" in capsys.readouterr().out


def test_store_merge_refuses_destination_among_sources(tmp_path, capsys):
    # An in-place merge would read and rewrite the same files; the CLI must
    # refuse it before touching anything, with a clear error and exit 2.
    _seed_store(tmp_path / "a", "json", indices=[0])
    _seed_store(tmp_path / "b", "json", indices=[1])
    code = main(
        ["store", "merge", str(tmp_path / "a"), str(tmp_path / "a"), str(tmp_path / "b")]
    )
    assert code == 2
    assert "onto itself" in capsys.readouterr().err
    from repro.store import open_store

    assert sorted(open_store(tmp_path / "a", "json").keys()) == ["00" * 32]


def test_store_migrate_refuses_in_place(tmp_path, capsys):
    _seed_store(tmp_path / "a", "json", indices=[0])
    assert main(["store", "migrate", str(tmp_path / "a"), str(tmp_path / "a")]) == 2
    assert "onto itself" in capsys.readouterr().err
    assert main(
        ["store", "migrate", str(tmp_path / "a"), str(tmp_path / "a" / "sub")]
    ) == 2
    assert "overlaps" in capsys.readouterr().err


# -- repro serve --------------------------------------------------------------


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8100
    assert args.store is None
    assert not hasattr(args, "backend")
    assert args.batch_size == 8
    assert args.request_timeout == 300.0


def test_serve_parser_accepts_overrides():
    args = build_parser().parse_args(
        [
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--store", "columnar",
            "--batch-size", "4", "--request-timeout", "10",
        ]
    )
    assert (args.host, args.port) == ("0.0.0.0", 0)
    assert args.store == "columnar"
    assert (args.batch_size, args.request_timeout) == (4, 10.0)
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--gather-window-ms", "5"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--store", "parquet"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--backend", "vector"])


def test_serve_rejects_invalid_config(tmp_path, capsys):
    code = main(
        ["serve", "--port", "0", "--cache-dir", str(tmp_path), "--batch-size", "0"]
    )
    assert code == 2
    assert "batch_size" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("flag", "value", "name"),
    [
        ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-2", "batch_size"),
        ("--jobs", "-1", "jobs"),
    ],
)
def test_run_rejects_out_of_range_runner_input(tmp_path, capsys, flag, value, name):
    code = main(["run", "samples", "--cache-dir", str(tmp_path), flag, value])
    assert code == 2
    assert name in capsys.readouterr().err


def test_serve_runs_until_interrupt_then_stops_cleanly(tmp_path, capsys, monkeypatch):
    # Drive the CLI path without a real socket loop: the first poll of
    # serve_forever raises KeyboardInterrupt, which must fall through the
    # graceful-shutdown path (drain message, close, exit 0).
    from repro.serve import AllocationServer

    monkeypatch.setattr(
        AllocationServer,
        "serve_forever",
        lambda self: (_ for _ in ()).throw(KeyboardInterrupt()),
    )
    code = main(["serve", "--port", "0", "--cache-dir", str(tmp_path / "store")])
    assert code == 0
    err = capsys.readouterr().err
    assert "[serve] listening on http://127.0.0.1:" in err
    assert "draining the coalescing queue" in err
    assert "[serve] stopped" in err


@pytest.mark.parametrize("signum", ["SIGINT", "SIGTERM"])
def test_serve_stops_cleanly_on_a_signal_even_with_sigint_ignored(tmp_path, signum):
    # A shell starts a background job with SIGINT ignored, and Python keeps
    # an inherited ignored SIGINT; the service must still take its graceful
    # path on SIGINT and on SIGTERM.
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(tmp_path / "store")],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        banner = proc.stderr.readline()
        assert "[serve] listening on http://127.0.0.1:" in banner
        proc.send_signal(getattr(signal, signum))
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert "draining the coalescing queue" in err
    assert "[serve] stopped" in err
