"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {sweep,serve,fl} --seed N --seconds S --trace {0,1}

Every workload runs in fresh child interpreters built from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics (see
:mod:`perfbench.metrics`) untraced; with ``--trace 1`` it makes one
untraced and one traced run of the same fixed work and reports the
per-layer metrics.  End-to-end times are scaled to a reference host
speed measured beside the work (see :mod:`perfbench.probe`); the raw
figures are printed as ``unscaled_*`` lines.  Each metric is also
printed as ``name value unit``;
the last line of standard output is the JSON result.  A failed
correctness gate, or a checkout without ``src/repro``, exits non-zero
without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Sequence

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import gates, loadgen  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics, percentile  # noqa: E402
from perfbench.probe import REFERENCE_S, HostSpeed  # noqa: E402
from perfbench.spans import load_spans  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, RequestMix, base_seeds, serve_schedule  # noqa: E402

#: Set-up samples per run (spawn -> ready), reported as their median.
SETUPS = 5
#: ``-X importtime`` samples per traced run, reported as their median.
IMPORT_SAMPLES = 3
#: Open-loop arrival rate of the serve workload, far below the knee.  A
#: hit that arrives while a cold request is solving waits for the
#: interpreter lock; at 9 req/s cold solves held it 30-45% of the time on
#: a slow host and the hits' median flipped between its two modes, at
#: this rate they hold it under a quarter of the time.
SERVE_RATE = 5.0
#: Servers per ``serve`` run that replay the same traffic; each request's
#: median repetition and the median closed-loop phase are reported.
SERVE_ROUNDS = 2
#: Share of a round spent in the open-loop phase; the rest is the
#: closed-loop saturation phase.
OPEN_SHARE = 0.75
#: A run that takes longer than this is stopped and fails.
RUN_LIMIT_S = 170

#: The workload child (or server) and the host-speed probe share one CPU;
#: the load generator runs on another when there is one.
WORK_CPU, CLIENT_CPU = min(os.sched_getaffinity(0)), max(os.sched_getaffinity(0))

_CHILDREN: list[subprocess.Popen] = []
_UNITS = {name: unit for name, unit, *_ in END_TO_END}

#: ``scale(seconds, start, end)``: a time measured over ``[start, end]``
#: (``perf_counter`` stamps), expressed at the reference host speed.
Scale = Callable[[float, float, float], float]


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}


def _spawn(args: Sequence[str], cpu: int | None = None, **kwargs: Any) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=_env(), text=True, **kwargs
    )
    _CHILDREN.append(proc)
    if cpu is not None:
        os.sched_setaffinity(proc.pid, {cpu})
    return proc


def _reap(proc: subprocess.Popen, timeout: float = 60.0) -> tuple[int, float]:
    """Wait for ``proc``; returns (exit code, peak RSS in MB) from its rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise BenchError(f"child {proc.args} did not exit within {timeout:.0f}s")
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    _CHILDREN.remove(proc)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _unscaled(seconds: float, start: float, end: float) -> float:
    return seconds


def _start_probe(work: Path) -> subprocess.Popen:
    """The host-speed probe (:mod:`perfbench.probe`) on the workload's CPU."""
    proc = _spawn(
        ["perfbench/probe.py", "--cpu", str(WORK_CPU), "--out", str(work / "probe.txt")],
        stdout=subprocess.PIPE,
    )
    if proc.stdout.readline().strip() != "READY":
        raise BenchError("the host-speed probe failed to start")
    return proc


def _stop_probe(proc: subprocess.Popen, work: Path) -> HostSpeed:
    proc.terminate()
    proc.stdout.read()
    if _reap(proc)[0] != 0:
        raise BenchError("the host-speed probe failed")
    return HostSpeed(work / "probe.txt")


def _stop_children() -> None:
    for proc in list(_CHILDREN):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        _CHILDREN.remove(proc)


# -- sweep and fl -------------------------------------------------------------


def _child(workload: str, seed: int, run_dir: Path, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a workload child; returns it and its set-up time (spawn ->
    ``READY``) at the reference host speed."""
    run_dir.mkdir()
    seeds = ",".join(map(str, base_seeds(workload, seed)))
    started = time.perf_counter()
    proc = _spawn(
        ["perfbench/child.py", workload, "--base-seeds", seeds, "--work", str(run_dir), *extra],
        cpu=WORK_CPU,
        stdout=subprocess.PIPE,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    probe = proc.stdout.readline()
    if line.strip() != "READY" or not probe.strip():
        proc.wait()
        raise BenchError(f"{workload} child failed during set-up (exit {proc.returncode})")
    return proc, ready * REFERENCE_S / float(probe)


def _run_child(workload: str, seed: int, work: Path, tag: str, *extra: str) -> tuple[dict, float, float]:
    """One child run to completion; returns (result, scaled set-up s, peak RSS MB)."""
    out = work / f"{tag}.json"
    proc, ready = _child(workload, seed, work / tag, "--out", str(out), *extra)
    proc.stdout.read()
    code, rss = _reap(proc, RUN_LIMIT_S)
    if code != 0:
        raise BenchError(f"{workload} child exited with {code}")
    result = json.loads(out.read_text())
    if result["gate_failures"]:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(result["gate_failures"][:20]))
    if seed == DEFAULT_SEED:
        failures = gates.check_csv_digest(workload, result["warmup_csv_sha256"])
        if failures:
            raise BenchError("correctness gate failed: " + failures[0])
    return result, ready, rss


def _setup_sample(workload: str, seed: int, work: Path, index: int) -> float:
    proc, ready = _child(workload, seed, work / f"setup-{index}", "--setup-only")
    proc.stdout.read()
    if _reap(proc)[0] != 0:
        raise BenchError(f"{workload} set-up child failed")
    return ready


def _segments(timed_pass: dict, scaled: bool) -> list[float]:
    """A pass's segment times; ``scaled`` by the probes either side of each."""
    segments, probes = timed_pass["segments_s"], timed_pass["probes_s"]
    if not scaled:
        return segments
    return [t * 2.0 * REFERENCE_S / (a + b) for t, a, b in zip(segments, probes, probes[1:])]


def _batch_metrics(workload: str, passes: list[dict], scaled: bool = True) -> dict[str, float]:
    """Throughput and latency percentiles of the timed passes.

    A pass is cut into segments, one per operation plus the tail after the
    last, each scaled to the reference host speed by the probes run just
    before and after it.  A segment's time is its median over the passes
    of its input set.  Throughput is the operations done over the summed
    segment times of every set.
    """
    done, wall, latencies = 0, 0.0, []
    for input_set in sorted({p["input_set"] for p in passes}):
        repeats = [p for p in passes if p["input_set"] == input_set]
        segments = [_segments(p, scaled) for p in repeats]
        typical = [statistics.median(times) for times in zip(*segments)]
        wall += sum(typical)
        operations = typical[:-1]
        if workload == "sweep":
            done += repeats[0]["tasks"] - repeats[0]["failed"]
            latencies += operations
        else:
            rounds = repeats[0]["rounds"]
            done += sum(rounds)
            latencies += [x / r for x, r in zip(operations, rounds) if r]
    return {
        "throughput_per_s": done / wall,
        "p50_ms": percentile(latencies, 0.5) * 1000.0,
        "p90_ms": percentile(latencies, 0.9) * 1000.0,
    }


def _batch_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict[str, Any]:
    setups = [_setup_sample(workload, seed, work, index) for index in range(SETUPS - 1)]
    result, ready, rss = _run_child(workload, seed, work, "run", "--seconds", str(seconds))
    passes = result["passes"]
    metrics = _batch_metrics(workload, passes)
    metrics["setup_s"] = statistics.median([*setups, ready])
    metrics["peak_rss_mb"] = rss
    unit = "tasks/s" if workload == "sweep" else "rounds/s"
    info = {
        "sweep_tasks_per_s" if workload == "sweep" else "fl_rounds_per_s": (metrics["throughput_per_s"], unit),
        "passes": (len(passes), "count"),
    }
    unscaled = _batch_metrics(workload, passes, scaled=False)
    info.update({f"unscaled_{name}": (value, _UNITS[name]) for name, value in unscaled.items()})
    return _result(metrics, sum(p["tasks"] for p in passes), sum(p["failed"] for p in passes), info)


def _batch_traced(workload: str, seed: int, work: Path) -> dict[str, Any]:
    plain, _, _ = _run_child(workload, seed, work, "plain", "--passes", "1")
    spans_path = work / "spans.jsonl"
    traced, _, _ = _run_child(workload, seed, work, "traced", "--passes", "1", "--trace", str(spans_path))
    metrics = layer_metrics(load_spans(spans_path))
    metrics.update(_serve_client_metrics([]))
    metrics.update(_import_metrics())
    metrics["trace.overhead_share"] = traced["passes"][0]["wall_s"] / plain["passes"][0]["wall_s"] - 1.0
    attempted = traced["passes"][0]["tasks"]
    return _result(metrics, attempted, traced["passes"][0]["failed"], {})


# -- serve --------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://([\d.]+):(\d+)")


class _Server:
    """A ``repro serve`` child on a fresh columnar store."""

    def __init__(self, work: Path, tag: str, trace: Path | None = None) -> None:
        store = work / f"store-{tag}"
        options = ["--trace", str(trace)] if trace else []
        started = time.perf_counter()
        self.proc = _spawn(
            ["perfbench/serve_child.py", *options, "--", "serve", "--port", "0",
             "--cache-dir", str(store), "--store", "columnar"],
            cpu=WORK_CPU,
            stderr=subprocess.PIPE,
        )
        match = None
        while match is None:
            line = self.proc.stderr.readline()
            if not line:
                self.proc.wait()
                raise BenchError(f"serve child failed during set-up (exit {self.proc.returncode})")
            match = _LISTENING.search(line)
        self.host, self.port = match.group(1), int(match.group(2))
        self.log: list[str] = []
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        while loadgen.request(self.host, self.port, "/healthz")[0] != 200:
            if self.proc.poll() is not None or time.perf_counter() - started > 60:
                raise BenchError("serve child never answered /healthz")
            time.sleep(0.005)
        #: (spawn, first ``/healthz`` 200) ``perf_counter`` stamps.
        self.ready = (started, time.perf_counter())

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.log.append(line)

    def stop(self) -> float:
        """SIGINT (graceful drain and flush), wait; returns peak RSS in MB."""
        self.proc.send_signal(signal.SIGINT)
        code, rss = _reap(self.proc)
        self._drain.join(timeout=5)
        if code != 0 or not any("[serve] stopped" in line for line in self.log):
            raise BenchError(f"serve child did not stop cleanly (exit {code}): {''.join(self.log[-5:])}")
        return rss


def _serve_phases(server: _Server, seed: int, seconds: float) -> tuple[list, list, tuple[float, float]]:
    """(open-loop responses, closed-loop responses, closed-loop (start, end))."""
    mix = RequestMix(seed)
    schedule = serve_schedule(mix, SERVE_RATE, seconds * OPEN_SHARE)
    opened = loadgen.open_loop(server.host, server.port, schedule)
    closed, start, end = loadgen.closed_loop(server.host, server.port, iter(mix), seconds * (1 - OPEN_SHARE))
    return opened, closed, (start, end)


def _serve_gates(responses: list, seed: int) -> None:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    failures = gates.check_serve_responses(responses, seed)
    if failures:
        raise BenchError("correctness gate failed:\n  " + "\n  ".join(failures[:20]))


def _serve_untraced(seed: int, seconds: float, work: Path) -> dict[str, Any]:
    """``SETUPS`` fresh servers; the first ``SERVE_ROUNDS`` of them each run
    both phases of the same seeded traffic for ``seconds / SERVE_ROUNDS``."""
    probe = _start_probe(work)
    setups, rss, rounds = [], [], []
    for index in range(SETUPS):
        server = _Server(work, f"server-{index}")
        setups.append(server.ready)
        if index < SERVE_ROUNDS:
            rounds.append(_serve_phases(server, seed, seconds / SERVE_ROUNDS))
            rss.append(server.stop())
        else:
            server.stop()
    speed = _stop_probe(probe, work)
    responses = [r for opened, closed, _ in rounds for r in opened + closed]
    _serve_gates(responses, seed)

    metrics = _serve_end_to_end(rounds, speed.scale)
    unscaled = _serve_end_to_end(rounds, _unscaled)
    # A hit's ~2 ms go to connection set-up, wake-ups and the client as
    # much as to the server's CPU: unscaled, the hits' median spread 0.06
    # over ten seeds, scaled by the server CPU's probe 0.16.  It is the
    # one time reported as measured.
    metrics["p50_ms"] = unscaled["p50_ms"]
    metrics["setup_s"] = statistics.median(speed.scale(b - a, a, b) for a, b in setups)
    metrics["peak_rss_mb"] = max(rss)
    info = {
        "serve_hit_p50_ms": (metrics["p50_ms"], "ms"),
        "serve_cold_p50_ms": (metrics.pop("cold_p50_ms"), "ms"),
        "serve_p90_ms": (metrics["p90_ms"], "ms"),
        "serve_p90_samples": (len(rounds[0][0]), "count"),
        "serve_saturated_rps": (metrics["throughput_per_s"], "req/s"),
    }
    for phase, index in (("open", 0), ("closed", 1)):
        sent = [r for round_ in rounds for r in round_[index]]
        info[f"{phase}_sent"] = (len(sent), "count")
        info[f"{phase}_succeeded"] = (sum(r.ok for r in sent), "count")
        info[f"{phase}_failed"] = (sum(not r.ok for r in sent), "count")
    lags = [r.lag * 1000.0 for opened, _, _ in rounds for r in opened]
    info["serve_generator_lag_p90_ms"] = (percentile(lags, 0.9), "ms")
    unscaled["setup_s"] = statistics.median(b - a for a, b in setups)
    del unscaled["cold_p50_ms"]
    info.update({f"unscaled_{name}": (value, _UNITS[name]) for name, value in unscaled.items()})
    return _result(metrics, len(responses), sum(not r.ok for r in responses), info)


def _serve_end_to_end(rounds: list, scale: Scale) -> dict[str, float]:
    """Latency percentiles of the open loop and closed-loop throughput.

    The rounds replay the same schedule, so each open-loop request is
    reported at its median repetition, and throughput is the median
    round's.  ``p50_ms`` is the hits' median: a hit that arrives while a
    cold request is solving waits for the interpreter lock, so the median
    of *all* requests (a hit's 67th percentile at this mix) sits on that
    cliff.  ``p90_ms`` covers every request, so it prices the cold solves.
    """

    def latency_ms(response: loadgen.Response) -> float:
        # Timed from when it was due; a failed request misses every limit.
        if not response.ok:
            return float("inf")
        return scale(response.done - response.due, response.due, response.done) * 1000.0

    typical = [sorted(same, key=latency_ms)[len(same) // 2] for same in zip(*(r[0] for r in rounds))]
    rates = [sum(r.ok for r in closed) / scale(end - start, start, end) for _, closed, (start, end) in rounds]
    return {
        "throughput_per_s": statistics.median(rates),
        "p50_ms": percentile([latency_ms(r) for r in typical if r.cached], 0.5),
        "p90_ms": percentile([latency_ms(r) for r in typical], 0.9),
        "cold_p50_ms": percentile([latency_ms(r) for r in typical if r.ok and not r.cached], 0.5),
    }


def _serve_client_metrics(responses: list) -> dict[str, float]:
    ok = [r for r in responses if r.ok]
    lags = [r.lag * 1000.0 for r in responses if r.phase == "open"]
    return {
        "serve.hit_share": sum(r.cached for r in ok) / len(ok) if ok else 0.0,
        "serve.generator_lag_ms": percentile(lags, 0.9) if lags else 0.0,
    }


def _serve_traced(seed: int, seconds: float, work: Path) -> dict[str, Any]:
    seconds /= 2  # two servers, untraced and traced, share the run's time
    server = _Server(work, "plain")
    _, plain_closed, (plain_start, plain_end) = _serve_phases(server, seed, seconds)
    server.stop()
    spans_path = work / "spans.jsonl"
    server = _Server(work, "traced", trace=spans_path)
    opened, closed, (start, end) = _serve_phases(server, seed, seconds)
    server.stop()
    responses = opened + closed
    _serve_gates(responses, seed)
    latency = {r.rid: r.done - r.sent for r in responses}
    metrics = layer_metrics(load_spans(spans_path), latency)
    metrics.update(_serve_client_metrics(responses))
    metrics.update(_import_metrics())
    plain_rps = len(plain_closed) / (plain_end - plain_start)
    metrics["trace.overhead_share"] = plain_rps / (len(closed) / (end - start)) - 1.0
    return _result(metrics, len(responses), sum(not r.ok for r in responses), {})


# -- shared -------------------------------------------------------------------


def _import_metrics() -> dict[str, float]:
    """``cli.import_s`` / ``cli.import_scipy_s`` from ``python -X importtime``,
    each the median of ``IMPORT_SAMPLES`` fresh interpreters."""
    totals, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = _spawn(["-X", "importtime", "-c", "import repro.cli"], stderr=subprocess.PIPE)
        _, report = proc.communicate(timeout=60)
        _CHILDREN.remove(proc)
        if proc.returncode != 0:
            raise BenchError("import repro.cli failed")
        total, under_scipy = _parse_importtime(report)
        totals.append(total)
        scipy.append(under_scipy)
    return {"cli.import_s": statistics.median(totals), "cli.import_scipy_s": statistics.median(scipy)}


def _parse_importtime(report: str) -> tuple[float, float]:
    """(cumulative s of ``repro.cli``, cumulative s of the outermost ``scipy*`` imports).

    ``-X importtime`` prints a module after its children, indented two
    spaces per level; a scipy module counts when no enclosing import is
    scipy too.
    """
    rows = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative) / 1e6, name.strip()))
    total = next((seconds for _, seconds, name in rows if name == "repro.cli"), 0.0)
    under_scipy = 0.0
    enclosing_scipy: dict[int, bool] = {}
    for depth, seconds, name in reversed(rows):  # parents first
        is_scipy = name == "scipy" or name.startswith("scipy.")
        inside = any(enclosing_scipy.get(d, False) for d in range(depth))
        enclosing_scipy[depth] = is_scipy or inside
        for deeper in [d for d in enclosing_scipy if d > depth]:
            del enclosing_scipy[deeper]
        if is_scipy and not inside:
            under_scipy += seconds
    return total, under_scipy


def _result(metrics: dict[str, float], attempted: int, failed: int, info: dict) -> dict[str, Any]:
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "info": info}


def _emit(result: dict[str, Any], trace: bool) -> None:
    specs = [(n, u) for n, u, *_ in (PER_LAYER if trace else END_TO_END)]
    missing = [name for name, _ in specs if name not in result["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    for name, (value, unit) in result["info"].items():
        print(f"{name} {value} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate {failed / attempted if attempted else 1.0} share")
    metrics = {}
    for name, unit in specs:
        value = float(result["metrics"][name])
        print(f"{name} {value} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def _timeout(signum: int, frame: Any) -> None:
        raise BenchError(f"run exceeded {RUN_LIMIT_S}s")

    os.sched_setaffinity(0, {CLIENT_CPU})
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_LIMIT_S)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
        work.mkdir(parents=True)
        if args.workload == "serve":
            result = (
                _serve_traced(args.seed, args.seconds, work)
                if args.trace
                else _serve_untraced(args.seed, args.seconds, work)
            )
        else:
            result = (
                _batch_traced(args.workload, args.seed, work)
                if args.trace
                else _batch_untraced(args.workload, args.seed, args.seconds, work)
            )
        if result["attempted"] < 1:
            raise BenchError("no operation was attempted")
        _emit(result, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_children()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
