"""Command-line interface: regenerate any paper figure from the terminal.

Examples
--------
List the available experiments, and the registered scenario families::

    python -m repro.cli list
    python -m repro.cli list-scenarios

Regenerate Figure 2 at the default (reduced) scale and print the table::

    python -m repro.cli run fig2

Fan the Figure-8 sweep out over four worker processes::

    python -m repro.cli run fig8 --jobs 4

Run an experiment on a non-paper scenario family::

    python -m repro.cli run fig2 --scenario hotspot --scenario-param num_clusters=5

Regenerate Figure 8 at the full paper scale and save the rows::

    python -m repro.cli run fig8 --paper --output fig8.json --csv fig8.csv

Repeated runs are instant thanks to the on-disk result cache (disable with
``--no-cache``; relocate with ``--cache-dir`` or ``$REPRO_CACHE_DIR``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import signal
import sys
from typing import Any, Sequence

from .exceptions import ConfigurationError
from .experiments.registry import EXPERIMENTS, get_experiment
from .experiments.results import ResultTable
from .experiments.runner import SweepRunner, TaskOutcome, use_runner
from .scenarios import get_scenario_family, scenario_families
from .store import STORE_BACKENDS
from .store import merge_stores, migrate_store, open_store

__all__ = ["main", "build_parser"]

#: Experiment config classes (each exposes defaults via ``cls()`` and the
#: full Section VII-A setting via ``cls.paper()``).
_CONFIGS = {
    "fig2": ("repro.experiments.fig2", "Fig2Config"),
    "fig3": ("repro.experiments.fig3", "Fig3Config"),
    "fig4": ("repro.experiments.fig4", "Fig4Config"),
    "fig5": ("repro.experiments.fig5", "Fig5Config"),
    "fig6": ("repro.experiments.fig6", "Fig6Config"),
    "fig7": ("repro.experiments.fig7", "Fig7Config"),
    "fig8": ("repro.experiments.fig8", "Fig8Config"),
    "flcurve": ("repro.experiments.flcurve", "FLCurveConfig"),
    "samples": ("repro.experiments.samples", "SamplesConfig"),
    "ablation": ("repro.experiments.ablation", "AblationConfig"),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Joint Optimization of Energy Consumption and "
        "Completion Time in Federated Learning' (ICDCS 2022).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")
    subparsers.add_parser(
        "list-scenarios",
        help="list the registered scenario families with their default parameters",
    )

    run = subparsers.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    run.add_argument(
        "--paper",
        action="store_true",
        help="use the full Section VII-A configuration instead of the reduced default",
    )
    run.add_argument(
        "--scenario",
        metavar="FAMILY",
        help="scenario family to build the sweep's drops from "
        "(see `repro list-scenarios`; default: the experiment's, usually 'paper')",
    )
    run.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family-specific scenario parameter (repeatable; VALUE is parsed "
        "as JSON, falling back to a plain string)",
    )
    run.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (1 = serial, 0 = all CPU cores)",
    )
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="cap on same-shape cold tasks per lockstep pass: proposed "
        "solves, or proposed FL runs advanced a round at a time (default: "
        "a whole same-shape group per pass, split across --jobs workers; "
        "1 = run every task on its own; results are bit-identical either "
        "way)",
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every task instead of reusing the on-disk result cache",
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    run.add_argument(
        "--store",
        choices=sorted(STORE_BACKENDS),
        default=None,
        help="result-store backend for the cache: 'json' (one file per task) "
        "or 'columnar' (append log + packed segments); default: whatever "
        "the cache directory already holds, else json",
    )
    run.add_argument(
        "--shard",
        metavar="I/N",
        default=None,
        help="run only the tasks whose hash lands in shard I of N (0-based); "
        "N invocations partition the sweep exactly, and `repro store merge` "
        "reassembles the shard caches into the serial store bit-for-bit",
    )
    run.add_argument("--output", help="write the result table to this JSON file")
    run.add_argument("--csv", help="write the result rows to this CSV file")

    fl = subparsers.add_parser(
        "fl",
        help="run the closed-loop FL training simulation: every global round "
        "redraws the fading, re-solves the resource allocation and prices "
        "the round's training",
    )
    fl.add_argument(
        "--scenario",
        metavar="FAMILY",
        default="paper",
        help="scenario family the drop is built from (default: paper)",
    )
    fl.add_argument(
        "--scenario-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family-specific scenario parameter (repeatable; VALUE is parsed "
        "as JSON, falling back to a plain string)",
    )
    fl.add_argument(
        "--rounds", type=int, default=10, metavar="N", help="global rounds (default 10)"
    )
    fl.add_argument(
        "--devices", type=int, default=12, metavar="N", help="fleet size (default 12)"
    )
    fl.add_argument(
        "--scheme",
        default="proposed",
        help="'proposed' (Algorithm 2, re-solved each round) or a baseline "
        "scheme name (see repro.baselines)",
    )
    fl.add_argument(
        "--selection",
        default="all",
        help="client-selection strategy: all, random-k, fastest-k, deadline-k",
    )
    fl.add_argument(
        "--select-k",
        type=int,
        default=None,
        metavar="K",
        help="the k of a k-style selection strategy (default: half the fleet)",
    )
    fl.add_argument(
        "--energy-weight",
        type=float,
        default=0.5,
        metavar="W1",
        help="objective weight w1 on energy (w2 = 1 - w1; default 0.5)",
    )
    fl.add_argument(
        "--fading",
        default="rayleigh",
        help="per-round fading model (rayleigh, rician, nakagami) or 'none' "
        "for a static channel",
    )
    fl.add_argument(
        "--local-iterations",
        type=int,
        default=None,
        metavar="N",
        help="local SGD iterations per round (default: the scenario's R_l)",
    )
    fl.add_argument(
        "--churn",
        metavar="SPEC",
        default=None,
        help="dynamic-fleet churn schedule: a JSON spec (see repro.fl.churn) "
        "or the shorthand 'poisson:arrive=0.3,depart=0.2,absent=0.25' — "
        "devices then join/leave mid-training and the allocator re-solves "
        "over the changed fleet",
    )
    fl.add_argument(
        "--battery",
        type=float,
        default=None,
        metavar="JOULES",
        help="per-device battery capacity in joules; each round's allocated "
        "energy drains it and drained devices are retired (re-solved around)",
    )
    fl.add_argument(
        "--battery-policy",
        choices=["graceful", "loud"],
        default="graceful",
        help="what an over-budget draw does: 'graceful' retires the device, "
        "'loud' raises BatteryDrainedError (default: graceful)",
    )
    fl.add_argument(
        "--estimate-profiles",
        action="store_true",
        help="solve each round's allocation on device profiles fitted from "
        "observed round timings (recursive least squares) instead of the "
        "oracle parameters",
    )
    fl.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    fl.add_argument(
        "--quick",
        action="store_true",
        help="tiny smoke configuration (2 rounds, 6 devices) — what CI runs",
    )
    fl.add_argument("--output", help="write the per-round table to this JSON file")
    fl.add_argument("--csv", help="write the per-round rows to this CSV file")

    serve = subparsers.add_parser(
        "serve",
        help="start the long-lived allocation service: POST /solve answers "
        "allocation requests (cache hits from the result store, cold "
        "misses coalesced into lockstep batch solves), GET /metrics and "
        "GET /healthz export observability",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8100,
        help="TCP port (default 8100; 0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="result-store root the service answers cache hits from and "
        "writes solves into (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    serve.add_argument(
        "--store",
        choices=sorted(STORE_BACKENDS),
        default=None,
        help="result-store backend (default: whatever the store directory "
        "already holds, else json)",
    )
    serve.add_argument(
        "--batch-size",
        type=int,
        default=8,
        metavar="N",
        help="maximum concurrent requests coalesced into one lockstep "
        "multi-solve pass (default 8); a larger same-shape group splits "
        "into even passes, as in `repro run --batch-size`",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="S",
        help="per-request solve timeout in seconds (default 300)",
    )

    store = subparsers.add_parser(
        "store",
        help="inspect and transform result stores (the sweep caches): "
        "stat, query, compact, migrate, merge",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    store_stat = store_sub.add_parser(
        "stat", help="summarise one store: backend, entries, files, bytes"
    )
    store_stat.add_argument("root", help="store root directory (a cache dir)")

    store_query = store_sub.add_parser(
        "query",
        help="extract metric columns across every stored entry as CSV "
        "(digest + one column per requested metric)",
    )
    store_query.add_argument("root", help="store root directory")
    store_query.add_argument(
        "--columns",
        required=True,
        metavar="A,B,...",
        help="comma-separated metric names to extract",
    )
    store_query.add_argument(
        "--output", help="write the CSV here instead of stdout"
    )

    store_compact = store_sub.add_parser(
        "compact",
        help="fold a columnar store's append log into one packed segment "
        "(a no-op for backends without a log)",
    )
    store_compact.add_argument("root", help="store root directory")

    store_migrate = store_sub.add_parser(
        "migrate",
        help="copy every entry of one store into a fresh store of another "
        "backend (entries are preserved bit-identically)",
    )
    store_migrate.add_argument("source", help="source store root")
    store_migrate.add_argument("dest", help="destination store root (created)")
    store_migrate.add_argument(
        "--backend",
        choices=sorted(STORE_BACKENDS),
        default="columnar",
        help="destination backend (default: columnar)",
    )

    store_merge = store_sub.add_parser(
        "merge",
        help="union N shard stores into one store; the result is "
        "byte-identical whatever the shard order",
    )
    store_merge.add_argument("dest", help="destination store root (created)")
    store_merge.add_argument(
        "sources", nargs="+", metavar="source", help="shard store roots"
    )
    store_merge.add_argument(
        "--backend",
        choices=sorted(STORE_BACKENDS),
        default="columnar",
        help="destination backend (default: columnar)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the repro-lint static-analysis rules (determinism, "
        "convergence, and cache-key invariants); needs a source checkout",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint, relative to the repo root "
        "(default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    lint.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _config_class(name: str):
    module_name, class_name = _CONFIGS[name]
    module = __import__(module_name, fromlist=[class_name])
    return getattr(module, class_name)


def _parse_scenario_params(pairs: Sequence[str]) -> dict[str, Any]:
    """Parse repeated ``KEY=VALUE`` flags (VALUE as JSON, else string)."""
    params: dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigurationError(
                f"--scenario-param expects KEY=VALUE, got {pair!r}"
            )
        try:
            params[key] = json.loads(raw)
        except ValueError:
            params[key] = raw
    return params


#: Shorthand keys of the ``--churn poisson:...`` spec and the churn-spec
#: fields they expand to.
_CHURN_SHORTHAND_KEYS = {
    "arrive": "arrive_rate",
    "depart": "depart_rate",
    "absent": "initial_absent_fraction",
}


def _parse_churn_spec(text: str) -> dict[str, Any]:
    """Parse ``--churn``: raw JSON, or ``poisson:arrive=0.3,depart=0.2``."""
    text = text.strip()
    if text.startswith(("{", "[")):
        spec = json.loads(text)
        if not isinstance(spec, dict):
            raise ConfigurationError("--churn JSON must be an object")
        return spec
    mode, _, rest = text.partition(":")
    if mode != "poisson":
        raise ConfigurationError(
            f"--churn shorthand must start with 'poisson', got {mode!r} "
            "(use a JSON spec for explicit event schedules)"
        )
    spec: dict[str, Any] = {"mode": "poisson"}
    if rest:
        for pair in rest.split(","):
            key, sep, raw = pair.partition("=")
            if not sep or key not in _CHURN_SHORTHAND_KEYS:
                known = ", ".join(sorted(_CHURN_SHORTHAND_KEYS))
                raise ConfigurationError(
                    f"--churn poisson shorthand expects KEY=VALUE with KEY in "
                    f"{{{known}}}, got {pair!r}"
                )
            spec[_CHURN_SHORTHAND_KEYS[key]] = float(raw)
    return spec


def _apply_scenario(config, family: str | None, params: dict[str, Any]):
    """Point ``config.sweep`` at another scenario family / extra params."""
    if family is not None:
        get_scenario_family(family)  # fail fast with the known-family list
    sweep = config.sweep.with_scenario(family or config.sweep.scenario_family, **params)
    return dataclasses.replace(config, sweep=sweep)


def _list_scenarios(stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    for name in scenario_families():
        family = get_scenario_family(name)
        defaults = ", ".join(f"{k}={v!r}" for k, v in sorted(family.defaults.items()))
        print(f"{name}: {family.description}", file=stream)
        if defaults:
            print(f"    defaults: {defaults}", file=stream)


class _ProgressPrinter:
    """One stderr status line per completed sweep task."""

    def __init__(self, name: str, stream=None) -> None:
        self.name = name
        self.stream = stream if stream is not None else sys.stderr
        self.cached = 0
        self.failed = 0

    def __call__(self, done: int, total: int, outcome: TaskOutcome) -> None:
        self.cached += outcome.cached
        self.failed += outcome.error is not None
        detail = f" ({self.cached} cached, {self.failed} failed)" if self.cached or self.failed else ""
        end = "\n" if done == total else "\r"
        print(f"[{self.name}] {done}/{total} tasks{detail}", end=end, file=self.stream, flush=True)


def _make_runner(name: str, args: argparse.Namespace) -> SweepRunner:
    return SweepRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        progress=_ProgressPrinter(name),
        batch_size=getattr(args, "batch_size", None),
        store_backend=getattr(args, "store", None),
        shard=getattr(args, "shard", None),
    )


def _run(
    name: str,
    *,
    paper: bool,
    output: str | None,
    csv: str | None,
    scenario: str | None = None,
    scenario_params: dict[str, Any] | None = None,
    runner: SweepRunner | None = None,
) -> ResultTable:
    experiment = get_experiment(name)
    config = _config_class(name).paper() if paper else None
    if scenario is not None or scenario_params:
        # A scenario override needs a config object to hang off; fall back
        # to the experiment's reduced default when --paper wasn't given.
        config = config if config is not None else _config_class(name)()
        config = _apply_scenario(config, scenario, scenario_params or {})
    if runner is None:
        table = experiment(config) if config is not None else experiment()
    else:
        # Install the configured runner as the ambient default so experiment
        # callables that predate the ``runner=`` keyword still pick it up.
        with use_runner(runner):
            table = experiment(config) if config is not None else experiment()
        stats = runner.last_stats
        if stats.total:
            skipped = (
                f", {stats.skipped} other-shard" if stats.skipped else ""
            )
            store = f", store={stats.store_backend}" if stats.store_backend else ""
            print(
                f"[{name}] {stats.total} tasks in {stats.elapsed_s:.1f}s "
                f"({stats.cache_hits} cached, {stats.failed} failed"
                f"{skipped}, jobs={runner.jobs}{store})",
                file=sys.stderr,
            )
    print(table.to_markdown())
    if table.errors:
        print(f"\n{len(table.errors)} grid point(s) recorded failures; "
              "see the table metadata for messages.", file=sys.stderr)
    if output:
        table.to_json(output)
        print(f"\nwrote {output}")
    if csv:
        table.to_csv(csv)
        print(f"wrote {csv}")
    return table


def _run_fl(args: argparse.Namespace) -> int:
    from .fl.roundloop import FLRoundLoop, RoundLoopConfig

    rounds = 2 if args.quick else args.rounds
    devices = 6 if args.quick else args.devices
    get_scenario_family(args.scenario)  # fail fast with the known-family list
    scenario = {
        "family": args.scenario,
        "num_devices": devices,
        "seed": args.seed,
        **_parse_scenario_params(args.scenario_param),
    }
    selection_params = {} if args.select_k is None else {"k": args.select_k}
    churn = _parse_churn_spec(args.churn) if args.churn else None
    battery = (
        None
        if args.battery is None
        else {"capacity_j": args.battery, "policy": args.battery_policy}
    )
    config = RoundLoopConfig(
        scenario=scenario,
        rounds=rounds,
        local_iterations=args.local_iterations,
        energy_weight=args.energy_weight,
        scheme=args.scheme,
        selection=args.selection,
        selection_params=selection_params,
        fading=None if args.fading in ("none", "") else args.fading,
        seed=args.seed,
        churn=churn,
        battery=battery,
        estimate_profiles=args.estimate_profiles,
    )
    report = FLRoundLoop(config).run()
    table = report.to_table()
    print(table.to_markdown())
    print(
        f"[fl:{args.scheme}] {len(report)} rounds on {devices} devices "
        f"({args.scenario}, selection={args.selection}): accuracy "
        f"{report.final_accuracy:.3f} after {report.total_time_s:.1f}s "
        f"simulated wall-clock and {report.total_energy_j:.2f}J "
        f"({report.total_allocator_iterations} allocator iterations, "
        f"allocate {report.stage_seconds('fl_allocate'):.2f}s / train "
        f"{report.stage_seconds('fl_train'):.2f}s real)",
        file=sys.stderr,
    )
    if args.output:
        table.to_json(args.output)
        print(f"\nwrote {args.output}")
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the allocation service until SIGINT or SIGTERM, then stop gracefully."""
    from .serve import AllocationServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        store_root=args.cache_dir,
        store_backend=args.store,
        batch_size=args.batch_size,
        request_timeout_s=args.request_timeout,
    )
    server = AllocationServer(config)
    store = server.service.store
    store_info = f"{store.backend}:{store.root}" if store is not None else "off"
    # Both stop it however it was launched (a shell's `cmd &` ignores SIGINT).
    stops = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(signum, signal.default_int_handler) for signum in stops]
    try:
        print(
            f"[serve] listening on {server.url} (store={store_info}, "
            f"batch_size={config.batch_size}) — "
            "POST /solve, GET /metrics, GET /healthz; Ctrl-C to stop",
            file=sys.stderr,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print(
            "[serve] interrupt: draining the coalescing queue and flushing "
            "the store...",
            file=sys.stderr,
        )
    finally:
        server.close()
        for signum, handler in zip(stops, previous):
            signal.signal(signum, handler)
    print("[serve] stopped", file=sys.stderr)
    return 0


def _run_store(args: argparse.Namespace) -> int:
    """Dispatch the ``repro store`` subcommands."""
    import csv as _csv

    if args.store_command == "stat":
        stat = open_store(args.root).stat()
        print(f"backend: {stat.backend}")
        print(f"root: {stat.root}")
        print(f"entries: {stat.entries}")
        print(f"files: {stat.files}")
        print(f"bytes: {stat.bytes}")
        if stat.backend == "columnar":
            print(f"segments: {stat.segments}")
            print(f"log entries: {stat.log_entries}")
        return 0
    if args.store_command == "query":
        columns = [c for c in args.columns.split(",") if c]
        if not columns:
            print("error: --columns needs at least one metric name", file=sys.stderr)
            return 2
        store = open_store(args.root)
        rows = store.query(columns)
        handle = open(args.output, "w", newline="") if args.output else sys.stdout
        try:
            writer = _csv.writer(handle)
            writer.writerow(["digest", *columns])
            for digest, values in rows:
                writer.writerow(
                    [digest, *["" if v is None else v for v in values]]
                )
        finally:
            if args.output:
                handle.close()
        if args.output:
            print(f"wrote {args.output} ({len(rows)} entries)", file=sys.stderr)
        return 0
    if args.store_command == "compact":
        store = open_store(args.root)
        compact = getattr(store, "compact", None)
        if callable(compact):
            packed = compact()
            print(f"compacted {packed} entries under {store.root}")
        else:
            print(f"{store.backend} store has no log to compact; nothing to do")
        return 0
    if args.store_command == "migrate":
        source = open_store(args.source)
        dest = open_store(args.dest, args.backend)
        count = migrate_store(source, dest)
        print(
            f"migrated {count} entries: {source.backend}:{source.root} -> "
            f"{dest.backend}:{dest.root}"
        )
        return 0
    if args.store_command == "merge":
        sources = [open_store(root) for root in args.sources]
        dest = open_store(args.dest, args.backend)
        count = merge_stores(sources, dest)
        print(
            f"merged {count} entries from {len(sources)} stores into "
            f"{dest.backend}:{dest.root}"
        )
        return 0
    print(f"error: unknown store command {args.store_command!r}", file=sys.stderr)
    return 2  # pragma: no cover


def _run_lint(args: argparse.Namespace) -> int:
    """Dispatch ``repro lint`` to :mod:`tools.lint`.

    The linter lives outside the installed package (it lints the *source
    tree*, so shipping it in a wheel would be misleading); a source checkout
    is located from this file's position and put on ``sys.path`` when
    ``tools`` is not already importable.
    """
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    try:
        from tools.lint import main as lint_main
    except ImportError:
        if not (repo_root / "tools" / "lint" / "__init__.py").is_file():
            print(
                "error: `repro lint` needs a source checkout (tools/lint/ "
                f"not found under {repo_root})",
                file=sys.stderr,
            )
            return 2
        sys.path.insert(0, str(repo_root))
        from tools.lint import main as lint_main

    argv: list[str] = ["--root", str(repo_root), "--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.list_rules:
        argv.append("--list-rules")
    # Anchor relative paths at the repo root so `repro lint` works from any
    # working directory (rule scoping is relative-path based).
    argv += [
        path if Path(path).is_absolute() else str(repo_root / path)
        for path in args.paths
    ]
    return lint_main(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point used by ``python -m repro.cli`` and the ``repro`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "serve":
        try:
            return _run_serve(args)
        except (ConfigurationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "store":
        try:
            return _run_store(args)
        except (ConfigurationError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "fl":
        try:
            return _run_fl(args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.command == "list-scenarios":
        _list_scenarios()
        return 0
    if args.command == "run":
        try:
            scenario_params = _parse_scenario_params(args.scenario_param)
            _run(
                args.experiment,
                paper=args.paper,
                output=args.output,
                csv=args.csv,
                scenario=args.scenario,
                scenario_params=scenario_params,
                runner=_make_runner(args.experiment, args),
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
