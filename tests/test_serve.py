"""Tests for the allocation service (``repro serve``).

The contract under test: a served allocation response is **bit-identical**
to a direct per-drop ``execute_task`` run of the same request (zero
tolerance on every metric), repeats answer from the result store as cache
hits, a concurrent burst of compatible requests actually coalesces into
one lockstep batch (observable through ``/metrics``), malformed requests
come back as 400s, and shutdown drains the coalescing queue instead of
stranding waiting clients.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.allocator import AllocatorConfig
from repro.exceptions import ConfigurationError
from repro.experiments import runner as runner_module
from repro.experiments.base import SweepConfig, proposed_tasks
from repro.experiments.runner import SweepRunner, execute_task, task_hash
from repro.serve import (
    AllocationServer,
    AllocationService,
    RequestCoalescer,
    ServeConfig,
    parse_request,
)
from repro.serve import coalescer as coalescer_module
from repro.serve.schema import MAX_DEVICES
from repro.serve.server import MAX_BODY_BYTES
from repro.store import open_store

#: Tiny but real allocator setting shared by every request in this module.
TINY_ALLOCATOR = {"max_iterations": 4}


def _request_body(seed: int = 0, **overrides):
    body = {
        "scenario": {"family": "paper", "num_devices": 4, "seed": seed},
        "energy_weight": 0.5,
        "allocator": dict(TINY_ALLOCATOR),
    }
    body.update(overrides)
    return body


# -- request schema ----------------------------------------------------------


def test_parse_request_builds_the_sweep_engine_task():
    task = parse_request(_request_body(seed=3))
    assert task.solver_kind == "proposed"
    assert task.scenario["seed"] == 3
    assert task.solver_params["energy_weight"] == 0.5
    assert task.solver_params["allocator"] == AllocatorConfig(max_iterations=4)


def test_parse_request_hashes_like_a_cli_sweep_task():
    # A served request must be cache-compatible with the same task built by
    # the sweep engine: identical payload, identical digest.
    sweep = SweepConfig(
        num_devices=4,
        num_trials=1,
        base_seed=7,
        allocator=AllocatorConfig(max_iterations=4),
    )
    (sweep_task,) = proposed_tasks(("p",), sweep, 0.5)
    body = {
        "scenario": dict(sweep_task.scenario),
        "energy_weight": 0.5,
        "allocator": dict(TINY_ALLOCATOR),
    }
    served_task = parse_request(body)
    assert served_task.payload() == sweep_task.payload()
    assert task_hash(served_task) == task_hash(sweep_task)


def test_parse_request_applies_the_service_default_allocator():
    default = AllocatorConfig(max_iterations=9)
    task = parse_request(
        {"scenario": {"family": "paper"}, "energy_weight": 0.3},
        default_allocator=default,
    )
    assert task.solver_params["allocator"] == default


def test_parse_request_builds_baseline_tasks():
    task = parse_request(
        {
            "scenario": {"family": "paper", "num_devices": 4, "seed": 0},
            "solver_kind": "baseline",
            "baseline": "communication_only",
            "deadline_s": 120.0,
        }
    )
    assert task.solver_kind == "baseline"
    assert task.solver_params["name"] == "communication_only"
    assert task.solver_params["deadline_s"] == 120.0
    assert task.solver_params["kwargs"] == {}


@pytest.mark.parametrize(
    "body",
    [
        "not an object",
        {"energy_weight": 0.5},  # no scenario
        {"scenario": "paper", "energy_weight": 0.5},  # scenario not an object
        {"scenario": {"family": "no-such-family"}, "energy_weight": 0.5},
        {"scenario": {"family": "paper"}},  # proposed needs energy_weight
        {"scenario": {"family": "paper"}, "energy_weight": 1.5},
        {"scenario": {"family": "paper"}, "energy_weight": "half"},
        {"scenario": {"family": "paper"}, "energy_weight": 0.5, "deadline_s": -1},
        {"scenario": {"family": "paper"}, "energy_weight": 0.5, "typo_field": 1},
        {"scenario": {"family": "paper"}, "energy_weight": 0.5, "allocator": {"nope": 1}},
        {"scenario": {"family": "paper"}, "energy_weight": 0.5, "backend": "quantum"},
        {"scenario": {"family": "paper"}, "energy_weight": 0.5, "baseline": "benchmark"},
        {"scenario": {"family": "paper"}, "solver_kind": "baseline"},  # no name
        {"scenario": {"family": "paper"}, "solver_kind": "baseline", "baseline": "nope"},
        {"scenario": {"family": "paper"}, "solver_kind": "magic"},
    ],
)
def test_parse_request_rejects_malformed_bodies(body):
    with pytest.raises(ConfigurationError):
        parse_request(body)


@pytest.mark.parametrize(
    ("overrides", "field"),
    [
        ({"allocator": {"initial_strategy": "bogus"}}, "initial_strategy"),
        ({"allocator": {"max_iterations": "5"}}, "max_iterations"),
        ({"allocator": {"max_iterations": True}}, "max_iterations"),
        ({"allocator": {"max_iterations": -1}}, "max_iterations"),
        ({"allocator": {"subproblem1_method": "nope"}}, "subproblem1_method"),
        ({"allocator": {"tolerance": float("nan")}}, "tolerance"),
        ({"allocator": {"tolerance": -1e-3}}, "tolerance"),
        ({"allocator": {"tolerance": "tight"}}, "tolerance"),
        ({"allocator": {"initial_bandwidth_fraction": 0.0}}, "initial_bandwidth_fraction"),
        ({"allocator": {"initial_bandwidth_fraction": 1.5}}, "initial_bandwidth_fraction"),
        ({"scenario": {"family": "paper", "num_devices": 0, "seed": 0}}, "num_devices"),
        ({"scenario": {"family": "paper", "num_devices": "x", "seed": 0}}, "num_devices"),
        ({"scenario": {"family": "paper", "num_devices": 6.0, "seed": 0}}, "num_devices"),
        ({"scenario": {"family": "paper", "num_devices": MAX_DEVICES + 1, "seed": 0}}, "num_devices"),
    ],
)
def test_input_the_solver_would_fail_on_is_a_400_naming_its_field(tmp_path, overrides, field):
    service = AllocationService(ServeConfig(store_root=tmp_path / "store"))
    try:
        status, payload = service.solve(_request_body(seed=6, **overrides))
        assert service.metrics()["requests"]["invalid"] == 1
    finally:
        service.close()
    assert status == 400
    assert field in payload["error"]


def test_boundary_values_of_the_checked_fields_are_accepted():
    task = parse_request(
        _request_body(
            scenario={"family": "paper", "num_devices": MAX_DEVICES, "seed": 0},
            allocator={
                "initial_strategy": "compute_aware",
                "subproblem1_method": "dual",
                "max_iterations": 0,
                "tolerance": 0,
                "initial_bandwidth_fraction": 1.0,
            },
        )
    )
    assert task.scenario["num_devices"] == MAX_DEVICES
    assert task.solver_params["allocator"].initial_strategy == "compute_aware"


# -- HTTP round trips --------------------------------------------------------


@pytest.fixture()
def server(tmp_path):
    """A live server on an ephemeral port with a fresh store."""
    instance = AllocationServer(
        ServeConfig(
            port=0,
            store_root=tmp_path / "store",
            store_backend="json",
        )
    ).start()
    try:
        yield instance
    finally:
        instance.close()


def _post(server: AllocationServer, body, path: str = "/solve"):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(server: AllocationServer, path: str):
    try:
        with urllib.request.urlopen(server.url + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def test_served_response_is_bit_identical_to_direct_solve(server):
    body = _request_body(seed=11)
    status, payload = _post(server, body)
    assert status == 200
    assert payload["cached"] is False
    # Zero tolerance: the served metrics must equal the direct per-drop
    # execution of the same task, key for key, bit for bit.
    assert payload["metrics"] == execute_task(parse_request(body))
    assert payload["digest"] == task_hash(parse_request(body))


def test_served_baseline_and_deadline_requests_match_direct_solve(server):
    # The rng kwarg pins the benchmark's random draw, exactly as the
    # fig2/fig3 sweeps do via seed_rng_kwarg — without it the baseline is
    # legitimately non-deterministic and no parity claim holds.
    baseline = {
        "scenario": {"family": "paper", "num_devices": 4, "seed": 2},
        "solver_kind": "baseline",
        "baseline": "benchmark",
        "baseline_kwargs": {"rng": 2},
    }
    status, payload = _post(server, baseline)
    assert status == 200
    assert payload["metrics"] == execute_task(parse_request(baseline))
    # A hard-deadline request rides the lockstep batch path (here as a
    # batch of one) and must match the per-drop solve exactly.
    deadline = _request_body(seed=2, deadline_s=60.0)
    status, payload = _post(server, deadline)
    assert status == 200
    assert payload["batch_size"] == 1
    assert payload["metrics"] == execute_task(parse_request(deadline))


def test_repeat_request_is_a_cache_hit(server):
    body = _request_body(seed=5)
    status, first = _post(server, body)
    assert status == 200 and first["cached"] is False
    status, second = _post(server, body)
    assert status == 200 and second["cached"] is True
    assert second["metrics"] == first["metrics"]
    _status, metrics = _get(server, "/metrics")
    assert metrics["requests"]["cache_hits"] == 1
    assert metrics["requests"]["solved"] == 1


def test_sweep_cache_pre_warms_the_service(tmp_path):
    # A store filled by a plain SweepRunner answers the service's very
    # first request as a cache hit: one cache, two surfaces.
    sweep = SweepConfig(
        num_devices=4,
        num_trials=1,
        base_seed=21,
        allocator=AllocatorConfig(max_iterations=4),
    )
    (task,) = proposed_tasks(("p",), sweep, 0.5)
    runner = SweepRunner(jobs=1, cache_dir=tmp_path / "store", use_cache=True)
    (outcome,) = runner.run([task])
    server = AllocationServer(
        ServeConfig(port=0, store_root=tmp_path / "store")
    ).start()
    try:
        body = {
            "scenario": dict(task.scenario),
            "energy_weight": 0.5,
            "allocator": dict(TINY_ALLOCATOR),
        }
        status, payload = _post(server, body)
        assert status == 200
        assert payload["cached"] is True
        assert payload["metrics"] == outcome.metrics
    finally:
        server.close()


def test_concurrent_burst_coalesces_into_one_batch(server, monkeypatch):
    # Six compatible requests that queue while the worker is busy must
    # solve as one lockstep batch (they share a batch_group_key),
    # observable in both the responses and /metrics.
    entered, release, sizes = _hold_batches(monkeypatch)
    results: list[tuple[int, dict]] = []

    def fire(seed: int) -> None:
        results.append(_post(server, _request_body(seed=seed)))

    threads = [threading.Thread(target=fire, args=(seed,)) for seed in range(30, 36)]
    try:
        blocker = parse_request(_request_body(seed=29))
        server.service.coalescer.submit(blocker, task_hash(blocker))
        assert entered.wait(timeout=60)
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        while server.service.coalescer.snapshot()["queue_depth"] < 6:
            assert time.monotonic() < deadline
            time.sleep(0.005)
    finally:
        release.set()
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    assert sizes == [1, 6]
    assert all(status == 200 for status, _ in results)
    assert [payload["batch_size"] for _, payload in results] == [6] * 6
    _status, metrics = _get(server, "/metrics")
    assert metrics["coalescing"]["max_batch_size"] == 6
    assert metrics["coalescing"]["batches"] == 2
    # Coalesced or not, every response stays bit-identical to a direct solve.
    for _, payload in results:
        seed = next(
            seed
            for seed in range(30, 36)
            if task_hash(parse_request(_request_body(seed=seed))) == payload["digest"]
        )
        assert payload["metrics"] == execute_task(parse_request(_request_body(seed=seed)))


def test_identical_concurrent_requests_join_one_lane(server):
    body = _request_body(seed=40)
    results: list[tuple[int, dict]] = []
    barrier = threading.Barrier(4)

    def fire() -> None:
        barrier.wait()
        results.append(_post(server, body))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(status == 200 for status, _ in results)
    reference = results[0][1]["metrics"]
    assert all(payload["metrics"] == reference for _, payload in results)
    _status, metrics = _get(server, "/metrics")
    # Four requests, but at most one actual solve: the rest joined the
    # in-flight lane or hit the cache.
    assert metrics["coalescing"]["solved"] == 1
    joined_or_hit = (
        metrics["coalescing"]["joined"] + metrics["requests"]["cache_hits"]
    )
    assert joined_or_hit == 3


def test_solved_results_land_in_the_store(server, tmp_path):
    body = _request_body(seed=50)
    _status, payload = _post(server, body)
    store = open_store(tmp_path / "store", "json")
    entry = store.get_entry(payload["digest"])
    assert entry is not None
    assert entry[0] == payload["metrics"]


def test_malformed_requests_are_400s(server):
    status, payload = _post(server, {"bogus": 1})
    assert status == 400 and "bogus" in payload["error"]
    status, payload = _post(server, {"scenario": {"family": "no-such"}, "energy_weight": 0.5})
    assert status == 400 and "no-such" in payload["error"]
    # Invalid JSON body.
    request = urllib.request.Request(server.url + "/solve", data=b"{not json")
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    _status, metrics = _get(server, "/metrics")
    assert metrics["requests"]["invalid"] == 3


def test_a_backend_field_is_a_400_naming_it(server):
    """The service has one multiplier search; the retired SP2 backend
    override is an unknown field like any other."""
    for value in ("vector", "scalar"):
        status, payload = _post(server, _request_body(seed=7, backend=value))
        assert status == 400
        assert "unknown request field(s) backend" in payload["error"]


def test_an_oversized_body_is_a_prompt_413_and_closes_its_connection(server):
    """A declared length above the cap is refused without reading the body;
    the connection closes, and the service keeps answering."""
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as raw:
        raw.sendall(
            b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
            b"Content-Length: 1000000000\r\n\r\n"
        )
        reply = b""
        while chunk := raw.recv(4096):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413")
    assert str(MAX_BODY_BYTES) in json.loads(body)["error"]
    status, payload = _post(server, _request_body(seed=3))
    assert status == 200 and "metrics" in payload
    _status, metrics = _get(server, "/metrics")
    assert metrics["requests"]["invalid"] == 1


def test_unknown_paths_are_404s(server):
    status, _ = _post(server, {}, path="/nope")
    assert status == 404
    status, _ = _get(server, "/nope")
    assert status == 404


def test_solver_failures_are_500s_with_the_error_string(server):
    # A scenario the family builder rejects fails in the worker; the
    # response carries the crash-isolation error string, not a hung socket.
    status, payload = _post(server, _request_body(seed=0, scenario={"family": "paper", "num_devices": 4, "seed": 0, "radius_km": -1.0}))
    assert status == 500
    assert payload["error"] == "ConfigurationError: radius_km must be positive, got -1.0"
    _status, metrics = _get(server, "/metrics")
    assert metrics["requests"]["errors"] == 1


def test_healthz_and_metrics_endpoints(server):
    status, payload = _get(server, "/healthz")
    assert status == 200 and payload["status"] == "ok"
    status, metrics = _get(server, "/metrics")
    assert status == 200
    assert metrics["store"]["backend"] == "json"
    assert set(metrics["requests"]) == {
        "total",
        "solve",
        "cache_hits",
        "solved",
        "errors",
        "invalid",
        "rejected",
    }


def test_keep_alive_requests_answer_without_a_delayed_ack_stall(server):
    """Ten hits on one connection stay far under the ~40 ms a delayed ACK
    costs each response when Nagle holds back its body, and each body is
    the bytes a fresh connection gets."""
    body = json.dumps(_request_body(seed=80)).encode("utf-8")
    headers = {"Content-Type": "application/json"}

    def fresh() -> bytes:
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        try:
            conn.request("POST", "/solve", body=body, headers=headers)
            return conn.getresponse().read()
        finally:
            conn.close()

    assert json.loads(fresh())["cached"] is False
    expected = fresh()
    assert json.loads(expected)["cached"] is True
    conn = http.client.HTTPConnection(*server.address, timeout=60)
    walls, replies = [], []
    try:
        for _ in range(10):
            started = time.perf_counter()
            conn.request("POST", "/solve", body=body, headers=headers)
            response = conn.getresponse()
            replies.append((response.status, response.read()))
            walls.append(time.perf_counter() - started)
    finally:
        conn.close()
    assert replies == [(200, expected)] * 10
    assert statistics.median(walls) < 0.020, walls


# -- the coalescing worker ---------------------------------------------------


def _hold_batches(monkeypatch) -> tuple[threading.Event, threading.Event, list[int]]:
    """Make every ``execute_batch`` pass wait for ``release``; returns
    ``(entered, release, sizes)`` with ``sizes`` the batch sizes run."""
    entered, release, sizes = threading.Event(), threading.Event(), []
    real = runner_module.execute_batch

    def held(tasks):
        sizes.append(len(tasks))
        entered.set()
        assert release.wait(timeout=60)
        return real(tasks)

    monkeypatch.setattr(runner_module, "execute_batch", held)
    return entered, release, sizes


def test_requests_queued_during_a_solve_run_as_the_next_batch(monkeypatch):
    entered, release, sizes = _hold_batches(monkeypatch)
    coalescer = RequestCoalescer()
    try:
        first = parse_request(_request_body(seed=90))
        first_future = coalescer.submit(first, task_hash(first))
        assert entered.wait(timeout=60)
        tasks = [parse_request(_request_body(seed=seed)) for seed in (91, 92, 93)]
        futures = [coalescer.submit(task, task_hash(task)) for task in tasks]
        assert coalescer.snapshot()["queue_depth"] == 3
        release.set()
        outcomes = [future.result(timeout=60) for future in futures]
    finally:
        release.set()
        coalescer.close()
    assert sizes == [1, 3]
    assert first_future.result(timeout=0).metrics == execute_task(first)
    for task, outcome in zip(tasks, outcomes):
        assert outcome.batch_size == 3
        assert outcome.metrics == execute_task(task)


def test_a_drain_over_the_batch_size_splits_evenly(monkeypatch):
    """Seven same-shape requests at a cap of 3 run as 3+2+2, the sweep
    runner's even cut, and each answer equals its direct solve."""
    entered, release, sizes = _hold_batches(monkeypatch)
    coalescer = RequestCoalescer(batch_size=3)
    try:
        blocker = parse_request(_request_body(seed=120))
        coalescer.submit(blocker, task_hash(blocker))
        assert entered.wait(timeout=60)
        tasks = [parse_request(_request_body(seed=seed)) for seed in range(121, 128)]
        futures = [coalescer.submit(task, task_hash(task)) for task in tasks]
        release.set()
        outcomes = [future.result(timeout=60) for future in futures]
    finally:
        release.set()
        coalescer.close()
    assert sizes == [1, 3, 2, 2]
    assert [outcome.batch_size for outcome in outcomes] == [3, 3, 3, 2, 2, 2, 2]
    for task, outcome in zip(tasks, outcomes):
        assert outcome.metrics == execute_task(task)
    counters = coalescer.snapshot()
    assert (counters["batches"], counters["batched_tasks"]) == (4, 8)


def test_a_raising_baseline_resolves_with_the_per_task_error_string():
    task = parse_request(
        {
            "scenario": {"family": "paper", "num_devices": 4, "seed": 95},
            "solver_kind": "baseline",
            "baseline": "communication_only",
            "deadline_s": 120.0,
            "baseline_kwargs": {"no_such_argument": 1},
        }
    )
    with pytest.raises(TypeError) as excinfo:
        execute_task(task)
    coalescer = RequestCoalescer()
    try:
        outcome = coalescer.submit(task, task_hash(task)).result(timeout=60)
    finally:
        coalescer.close()
    assert outcome.metrics is None and outcome.state is None
    assert outcome.error == f"TypeError: {excinfo.value}"
    counters = coalescer.snapshot()
    assert (counters["solo_tasks"], counters["errors"], counters["batches"]) == (1, 1, 0)


def test_a_batch_resolves_before_a_slow_baseline_in_the_same_drain(monkeypatch):
    entered, release, _sizes = _hold_batches(monkeypatch)
    baseline_release = threading.Event()
    held = runner_module.execute_batch

    def held_baseline(tasks):
        if tasks[0].solver_kind == "baseline":
            assert baseline_release.wait(timeout=60)
        return held(tasks)

    monkeypatch.setattr(runner_module, "execute_batch", held_baseline)
    coalescer = RequestCoalescer()
    try:
        blocker = parse_request(_request_body(seed=94))
        coalescer.submit(blocker, task_hash(blocker))
        assert entered.wait(timeout=60)
        proposed = parse_request(_request_body(seed=95))
        baseline = parse_request(
            {
                "scenario": {"family": "paper", "num_devices": 4, "seed": 95},
                "solver_kind": "baseline",
                "baseline": "communication_only",
                "deadline_s": 120.0,
            }
        )
        proposed_future = coalescer.submit(proposed, task_hash(proposed))
        baseline_future = coalescer.submit(baseline, task_hash(baseline))
        release.set()
        # One drain holds both; the batch's answer does not wait for the
        # baseline still blocked behind it.
        assert proposed_future.result(timeout=60).metrics == execute_task(proposed)
        assert not baseline_future.done()
        baseline_release.set()
        assert baseline_future.result(timeout=60).metrics == execute_task(baseline)
    finally:
        release.set()
        baseline_release.set()
        coalescer.close()


def test_a_worker_bug_fails_the_drained_lanes_instead_of_hanging_them(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planner bug")

    monkeypatch.setattr(coalescer_module, "plan_units", broken)
    coalescer = RequestCoalescer()
    try:
        task = parse_request(_request_body(seed=130))
        outcome = coalescer.submit(task, task_hash(task)).result(timeout=60)
    finally:
        coalescer.close()
    assert not outcome.ok and outcome.error == "RuntimeError: planner bug"
    counters = coalescer.snapshot()
    assert (counters["solved"], counters["errors"]) == (1, 1)


def test_concurrent_submits_lose_no_lane(monkeypatch):
    """Eight threads submit overlapping digests while the worker drains;
    every future resolves with its own task's answer and the counters add
    up."""

    def fake_batch(tasks):
        return [({"seed": float(task.scenario["seed"])}, None, None) for task in tasks]

    monkeypatch.setattr(runner_module, "execute_batch", fake_batch)
    tasks = [parse_request(_request_body(seed=seed)) for seed in range(100, 112)]
    coalescer = RequestCoalescer(batch_size=4)
    submitted: list[tuple[int, object]] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def fire(offset: int) -> None:
            for k in range(30):
                task = tasks[(offset + k) % len(tasks)]
                submitted.append((task.scenario["seed"], coalescer.submit(task, task_hash(task))))

        threads = [threading.Thread(target=fire, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        for seed, future in submitted:
            assert future.result(timeout=60).metrics == {"seed": float(seed)}
    finally:
        sys.setswitchinterval(interval)
        coalescer.close()
    counters = coalescer.snapshot()
    assert counters["submitted"] + counters["joined"] == len(submitted) == 240
    assert counters["solved"] == counters["batched_tasks"] == counters["submitted"]
    assert counters["queue_depth"] == 0


def test_a_full_queue_is_a_429_but_a_queued_digest_can_be_joined(monkeypatch, tmp_path):
    monkeypatch.setattr(coalescer_module, "MAX_QUEUED", 2)
    # A worker held inside its first solve keeps every later digest queued.
    entered, release, _sizes = _hold_batches(monkeypatch)
    service = AllocationService(ServeConfig(store_root=tmp_path / "store"))
    try:
        blocker = parse_request(_request_body(seed=99))
        service.coalescer.submit(blocker, task_hash(blocker))
        assert entered.wait(timeout=60)
        tasks = [parse_request(_request_body(seed=seed)) for seed in (96, 97)]
        futures = [service.coalescer.submit(task, task_hash(task)) for task in tasks]
        status, payload = service.solve(_request_body(seed=98))
        assert status == 429
        assert payload["error"] and payload["digest"]
        joined = service.coalescer.submit(tasks[0], task_hash(tasks[0]))
        assert service.metrics()["requests"]["rejected"] == 1
        assert service.coalescer.snapshot()["joined"] == 1
    finally:
        release.set()
        service.close()
    assert joined.result(timeout=0) is futures[0].result(timeout=0)
    for task, future in zip(tasks, futures):
        assert future.result(timeout=0).metrics == execute_task(task)


# -- shutdown ----------------------------------------------------------------


def test_close_drains_queued_requests(monkeypatch):
    # close() called while requests still wait behind a held solve must
    # drain (solve) the queue, not drop it.
    entered, release, sizes = _hold_batches(monkeypatch)
    coalescer = RequestCoalescer()
    closer = threading.Thread(target=coalescer.close)
    try:
        blocker = parse_request(_request_body(seed=59))
        coalescer.submit(blocker, task_hash(blocker))
        assert entered.wait(timeout=60)
        tasks = [parse_request(_request_body(seed=seed)) for seed in (60, 61)]
        futures = [coalescer.submit(task, task_hash(task)) for task in tasks]
        closer.start()
        # close() refuses new work at once, then waits for the worker.
        assert coalescer._stop.wait(timeout=60)
        assert not any(future.done() for future in futures)
    finally:
        release.set()
        if closer.ident is None:
            closer.start()
        closer.join(timeout=60)
    assert not closer.is_alive()
    assert sizes == [1, 2]
    outcomes = [future.result(timeout=0) for future in futures]
    assert all(outcome.ok for outcome in outcomes)
    for task, outcome in zip(tasks, outcomes):
        assert outcome.metrics == execute_task(task)
    with pytest.raises(RuntimeError):
        coalescer.submit(tasks[0], "resubmitted-after-close")


def test_service_close_flushes_the_store(tmp_path):
    service = AllocationService(
        ServeConfig(
            port=0,
            store_root=tmp_path / "store",
            store_backend="columnar",
        )
    )
    try:
        status, payload = service.solve(_request_body(seed=70))
        assert status == 200
    finally:
        service.close()
    # A fresh instance (no shared in-memory state) reads the entry back.
    store = open_store(tmp_path / "store", "columnar")
    assert store.get_entry(payload["digest"]) is not None
    service.close()  # idempotent
