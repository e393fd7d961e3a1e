"""The closed loop: allocator-driven round-by-round federated training.

This module is where the paper's two halves finally drive each other.  The
static :class:`~repro.fl.simulation.FederatedSimulation` prices every round
with one fixed allocation; :class:`FLRoundLoop` instead re-runs the whole
resource-allocation stack *every global round*:

1. **Redraw the channel** — the large-scale drop (path loss + shadowing)
   stays fixed, but a fresh small-scale fading draw from the
   :mod:`repro.wireless.fading` registry perturbs the gains, so the
   allocator faces an evolving channel exactly as a deployed system would.
2. **Re-solve the allocation** — Algorithm 2 (or any registered baseline
   scheme) solves the new drop from scratch.
3. **Price the round** — the re-solved ``(p, B, f)`` gives every device its
   computation + upload time and energy for this round.
4. **Select clients** — a pluggable strategy (:mod:`repro.fl.selection`)
   picks who trains from the allocation-implied timings; the round's
   wall-clock is the slowest *selected* client.
5. **Train and aggregate** — the selected clients run their local SGD and
   the :class:`~repro.fl.server.FedAvgServer` aggregates, producing the
   accuracy/loss the round's seconds and joules actually bought.

Each round is one prepare → solve → finish step over a private per-run
state object: ``prepare_round`` applies churn, fixes the active set, redraws
the fading and poses the round's :class:`~repro.core.problem.JointProblem`
(step 1); the run's solver — Algorithm 2 or the configured baseline, picked
once per run — solves it (step 2); ``finish_round`` does steps 3-5 plus
battery drain and profile estimation, and returns the round's record.

One driver, :func:`run_lockstep`, steps any number of independent runs
together: round ``r`` of every run is prepared, then every ``"proposed"``
run sharing an allocator configuration is solved in one
:meth:`~repro.core.allocator.ResourceAllocator.solve_batch` (a baseline run
is solved on its own), then every run is finished.  :meth:`FLRoundLoop.run`
is its one-run case, and the sweep engine hands it a flcurve's
``"proposed"`` runs as one unit.  A batched lane is bit-identical to a lone
solve and each run keeps its own RNG streams, so a run's trajectory does
not depend on the runs beside it; a run that fails fails alone.

On top of the closed loop sits the **dynamic-fleet layer** (all off by
default, in which case the trajectory is bit-identical to the frozen-fleet
loop):

* **churn** (:mod:`repro.fl.churn`) — a declarative or Poisson-generated
  schedule of arrivals/departures grows and shrinks the fleet mid-training;
  each round re-solves the allocation over the present subset
  (:meth:`SystemModel.with_devices`);
* **drain** — per-device :class:`~repro.devices.battery.Battery` state is
  charged each round's allocated energy; drained devices are retired (never
  selected again, re-solved around) under the ``graceful`` policy, or the
  run fails loudly under ``loud``;
* **estimation** (:mod:`repro.fl.estimation`) — the allocator can run on
  *estimated* device profiles fitted from observed round timings by
  recursive least squares instead of the oracle parameters, with the
  oracle-vs-estimated error surfaced per round.

Everything is deterministic in ``RoundLoopConfig.seed``: the dataset,
partition, model init, server RNG, each round's fading/selection draws and
the churn event stream derive from per-purpose seed streams, so fixed-seed
runs are bit-identical across sweep execution orders (serial, parallel,
per run or in lockstep) — churned, drained and estimated or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from ..baselines.registry import BASELINES, get_baseline
from ..core.allocator import AllocationResult, AllocatorConfig, ResourceAllocator
from ..core.problem import JointProblem, ProblemWeights
from ..devices.battery import Battery, BatteryDrainedError
from ..exceptions import ConfigurationError
from ..perf.timers import StageTimings, stage
from ..scenarios import ScenarioSpec
from ..system import SystemModel, transmission_energy_j
from ..wireless.fading import make_fading
from .churn import ChurnSchedule, resolve_churn
from .client import Client
from .datasets import make_classification_dataset
from .estimation import ProfileEstimator
from .metrics import RoundLoopReport, RoundRecord
from .models import MLPClassifier, SoftmaxRegression
from .optimizer import SGDConfig
from .partition import dirichlet_partition, iid_partition
from .selection import SelectionContext, get_selection_strategy, select_clients
from .server import FedAvgServer

__all__ = ["RoundLoopConfig", "FLRoundLoop", "run_lockstep", "run_round_loop"]

#: Battery retirement policies: ``graceful`` drains what is left and
#: retires the device (the loop re-solves around it from the next round);
#: ``loud`` raises :class:`~repro.devices.battery.BatteryDrainedError`.
BATTERY_POLICIES = ("graceful", "loud")

#: A battery at or below this state of charge counts as dead — the device
#: is retired and never selected again.
_DEAD_SOC = 1e-12

#: Seed-stream tags: every RNG in the loop derives from ``(seed, tag)`` (or
#: ``(seed, _ROUND_STREAM + round)`` for per-round draws), so adding a new
#: consumer can never shift an existing stream.
_DATASET_STREAM = 0
_PARTITION_STREAM = 1
_MODEL_STREAM = 2
_SERVER_STREAM = 3
_ROUND_STREAM = 1000


@dataclass(frozen=True)
class RoundLoopConfig:
    """Declarative description of one closed-loop FL training run.

    The config is pure, JSON-able data (plus the nested allocator config),
    so a run can be hashed into the sweep cache, shipped to a worker
    process, or reconstructed from a CLI invocation.
    """

    #: Flat scenario-spec mapping (optional ``"family"`` key + builder
    #: params).  Ignored when a pre-built system is handed to
    #: :class:`FLRoundLoop` directly (the sweep engine does that).
    scenario: Mapping[str, Any] = field(default_factory=dict)
    #: Number of global rounds to run.
    rounds: int = 10
    #: Local SGD iterations per round (default: the system's ``R_l``).
    local_iterations: int | None = None
    #: The objective weight ``w1`` (``w2 = 1 - w1``).
    energy_weight: float = 0.5
    #: Optional hard completion-time budget handed to every round's problem.
    deadline_s: float | None = None
    #: ``"proposed"`` (Algorithm 2) or any registered baseline scheme name.
    scheme: str = "proposed"
    #: Client-selection strategy name (see :mod:`repro.fl.selection`).
    selection: str = "all"
    #: Strategy-specific parameters (e.g. ``{"k": 5}``).
    selection_params: Mapping[str, Any] = field(default_factory=dict)
    #: Per-round fading model redrawn from the fading registry, or None to
    #: keep the channel static across rounds.
    fading: str | None = "rayleigh"
    #: Fading-model parameters (e.g. ``{"k_db": 6.0}`` for Rician).
    fading_params: Mapping[str, Any] = field(default_factory=dict)
    #: Master seed of every RNG stream in the loop.
    seed: int = 0
    #: Synthetic-dataset shape.
    num_features: int = 16
    num_classes: int = 4
    samples_per_client: int = 40
    #: ``"dirichlet"`` (label-skewed) or ``"iid"`` client partitioning.
    partition: str = "dirichlet"
    concentration: float = 2.0
    #: ``"softmax"`` (multinomial regression) or ``"mlp"``.
    model: str = "softmax"
    hidden_units: int = 16
    learning_rate: float = 0.1
    batch_size: int = 32
    #: Hyper-parameters of the per-round Algorithm-2 solve.
    allocator: AllocatorConfig = field(default_factory=AllocatorConfig)

    # -- the dynamic-fleet layer (all off by default: the frozen-fleet
    # -- trajectory is then bit-identical to the pre-dynamic loop) ----------
    #: Churn spec (see :mod:`repro.fl.churn`), or None for a frozen fleet.
    churn: Mapping[str, Any] | None = None
    #: Battery spec: ``{"capacity_j": J, "initial_soc": 1.0, "policy":
    #: "graceful"|"loud"}``; None disables drain tracking entirely.
    battery: Mapping[str, Any] | None = None
    #: Solve each round's allocation on *estimated* device profiles fitted
    #: from observed round timings instead of the oracle parameters.
    estimate_profiles: bool = False
    #: Estimator parameters (e.g. ``{"forgetting": 0.9}``).
    estimation_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ConfigurationError("rounds must be positive")
        if self.local_iterations is not None and self.local_iterations <= 0:
            raise ConfigurationError("local_iterations must be positive when given")
        if not 0.0 <= self.energy_weight <= 1.0:
            raise ConfigurationError("energy_weight must lie in [0, 1]")
        if self.scheme != "proposed" and self.scheme not in BASELINES:
            known = ", ".join(["proposed", *sorted(BASELINES)])
            raise ConfigurationError(
                f"unknown scheme {self.scheme!r}; known: {known}"
            )
        if self.partition not in ("dirichlet", "iid"):
            raise ConfigurationError(
                f"partition must be 'dirichlet' or 'iid', got {self.partition!r}"
            )
        if self.model not in ("softmax", "mlp"):
            raise ConfigurationError(
                f"model must be 'softmax' or 'mlp', got {self.model!r}"
            )
        if self.samples_per_client <= 0:
            raise ConfigurationError("samples_per_client must be positive")
        # Fail fast on unknown registry names (instead of at round 1).
        get_selection_strategy(self.selection)
        if self.fading is not None:
            make_fading(self.fading, **dict(self.fading_params))
        if self.churn is not None:
            ChurnSchedule.from_mapping(self.churn)
        if self.battery is not None:
            self.battery_spec()
        if self.estimate_profiles or self.estimation_params:
            ProfileEstimator(1, params=dict(self.estimation_params))

    def battery_spec(self) -> tuple[float, float, str]:
        """The validated ``(capacity_j, initial_soc, policy)`` battery spec."""
        spec = dict(self.battery or {})
        unknown = sorted(set(spec) - {"capacity_j", "initial_soc", "policy"})
        if unknown:
            raise ConfigurationError(
                f"unknown battery spec key(s) {', '.join(map(repr, unknown))}; "
                "known: capacity_j, initial_soc, policy"
            )
        if "capacity_j" not in spec:
            raise ConfigurationError("battery spec needs capacity_j")
        capacity = float(spec["capacity_j"])
        if capacity <= 0.0:
            raise ConfigurationError("battery capacity_j must be positive")
        initial_soc = float(spec.get("initial_soc", 1.0))
        if not 0.0 < initial_soc <= 1.0:
            raise ConfigurationError("battery initial_soc must lie in (0, 1]")
        policy = str(spec.get("policy", "graceful"))
        if policy not in BATTERY_POLICIES:
            raise ConfigurationError(
                f"battery policy must be one of {', '.join(BATTERY_POLICIES)}, "
                f"got {policy!r}"
            )
        return capacity, initial_soc, policy

    def scenario_spec(self) -> ScenarioSpec:
        """The configured scenario as a (family, params) spec."""
        return ScenarioSpec.from_mapping(self.scenario)


class FLRoundLoop:
    """Run closed-loop federated training for a :class:`RoundLoopConfig`.

    ``system`` overrides the config's scenario with a pre-built drop (the
    sweep engine builds scenarios itself so they enter its cache key).
    """

    def __init__(self, config: RoundLoopConfig, system: SystemModel | None = None) -> None:
        self.config = config
        self.system = system if system is not None else config.scenario_spec().build()

    # -- training substrate -------------------------------------------------
    def _build_server(self) -> FedAvgServer:
        """Dataset, partition, model and server — all seeded deterministically."""
        config = self.config
        num_clients = self.system.num_devices
        train_samples = config.samples_per_client * num_clients
        # test_fraction=0.2 of the total leaves exactly ``train_samples``
        # for the clients when the total is train / 0.8.
        total = int(round(train_samples / 0.8))
        dataset = make_classification_dataset(
            num_samples=total,
            num_features=config.num_features,
            num_classes=config.num_classes,
            rng=np.random.default_rng((config.seed, _DATASET_STREAM)),
        )
        partition_rng = np.random.default_rng((config.seed, _PARTITION_STREAM))
        if config.partition == "iid":
            parts = iid_partition(dataset.num_train, num_clients, rng=partition_rng)
        else:
            parts = dirichlet_partition(
                dataset.train_y,
                num_clients,
                concentration=config.concentration,
                rng=partition_rng,
            )
        sgd = SGDConfig(
            learning_rate=config.learning_rate, batch_size=config.batch_size
        )
        clients = [
            Client(
                client_id=i,
                features=dataset.train_x[idx],
                labels=dataset.train_y[idx],
                sgd=sgd,
            )
            for i, idx in enumerate(parts)
        ]
        model_rng = np.random.default_rng((config.seed, _MODEL_STREAM))
        if config.model == "mlp":
            model = MLPClassifier(
                dataset.num_features,
                dataset.num_classes,
                config.hidden_units,
                rng=model_rng,
            )
        else:
            model = SoftmaxRegression(
                dataset.num_features, dataset.num_classes, rng=model_rng
            )
        return FedAvgServer(
            model,
            clients,
            test_x=dataset.test_x,
            test_y=dataset.test_y,
            rng=np.random.default_rng((config.seed, _SERVER_STREAM)),
        )

    # -- the loop -------------------------------------------------------------
    def run(self) -> RoundLoopReport:
        """Run every configured round and return the per-round trajectory.

        The one-run case of :func:`run_lockstep`; the run's exception is
        raised.
        """
        (report,) = run_lockstep([self])
        if isinstance(report, Exception):
            raise report
        return report


def run_lockstep(loops: Sequence[FLRoundLoop]) -> list[RoundLoopReport | Exception]:
    """Run independent closed loops together, one global round at a time.

    Round ``r`` of every run is posed (``prepare_round``), then solved —
    the ``"proposed"`` runs sharing an allocator configuration in one :meth:`ResourceAllocator.solve_batch`, each baseline run on its
    own — then closed (``finish_round``).  Every run keeps its own state
    and RNG streams, and a batched lane is bit-identical to a lone solve,
    so each trajectory is the one the run produces alone.  Runs may have
    different round counts.  A run that raises (building its state,
    posing, solving or closing a round) stops there and its exception
    takes its slot, the :func:`asyncio.gather` idiom; the others go on.
    """
    outcomes: list[RoundLoopReport | Exception] = []
    states: dict[int, _RunState] = {}

    def fail(k: int, exc: Exception) -> None:
        outcomes[k] = exc
        del states[k]

    for k, loop in enumerate(loops):
        outcomes.append(RoundLoopReport())
        try:
            states[k] = _RunState(loop.config, loop.system, loop._build_server())
        except Exception as exc:  # repro-lint: disable=RL005 -- run isolation: one bad run must fail its own slot, not its lockstep peers
            outcomes[k] = exc

    round_index = 0
    while states:
        round_index += 1
        groups: dict[Any, list[tuple[int, JointProblem, StageTimings]]] = {}
        for k, state in list(states.items()):
            if round_index > state.config.rounds:
                del states[k]
                continue
            timings = StageTimings()
            try:
                with stage("fl_round", timings), stage("fl_channel", timings):
                    problem = state.prepare_round(round_index)
            except Exception as exc:  # repro-lint: disable=RL005 -- run isolation: one bad run must fail its own slot, not its lockstep peers
                fail(k, exc)
                continue
            groups.setdefault(state.solve_key, []).append((k, problem, timings))

        for lanes in groups.values():
            # The group's solve wall is shared evenly by its lanes.
            shared = StageTimings()
            with stage("fl_round", shared), stage("fl_allocate", shared):
                solved = states[lanes[0][0]].solve_group(
                    [problem for _, problem, _ in lanes]
                )
            share = {name: seconds / len(lanes) for name, seconds in shared.seconds.items()}
            for (k, _problem, timings), result in zip(lanes, solved):
                timings.merge(share)
                if isinstance(result, Exception):
                    fail(k, result)
                    continue
                try:
                    with stage("fl_round", timings):
                        record = states[k].finish_round(round_index, result, timings)
                except Exception as exc:  # repro-lint: disable=RL005 -- run isolation: one bad run must fail its own slot, not its lockstep peers
                    fail(k, exc)
                    continue
                outcomes[k].append(record)
    return outcomes


class _RunState:
    """One run's state, advanced a global round at a time.

    :meth:`prepare_round` builds round ``r``'s allocation problem;
    :meth:`finish_round` prices, selects, trains, drains and estimates on
    the solved allocation and returns the round's record.  The round's RNG,
    active set and true subsystem stay here between the two calls.
    """

    def __init__(
        self, config: RoundLoopConfig, system: SystemModel, server: FedAvgServer
    ) -> None:
        self.config = config
        # Pricing and training must agree on R_l: the compute time/energy
        # models charge ``R_l c_n D_n`` cycles per round, so an overridden
        # iteration count is threaded into the system model, not just the
        # SGD loop.
        if (
            config.local_iterations is not None
            and config.local_iterations != system.local_iterations
        ):
            system = system.with_schedule(local_iterations=config.local_iterations)
        self.base_system = system
        self.num_clients = system.num_devices
        self.server = server
        self.fading = (
            make_fading(config.fading, **dict(config.fading_params))
            if config.fading is not None
            else None
        )
        self.weights = ProblemWeights.from_energy_weight(config.energy_weight)
        # Runs with equal solve keys solve their rounds in one group: every
        # proposed run with this allocator configuration, or this baseline
        # run alone.
        if config.scheme == "proposed":
            self.allocator: ResourceAllocator | None = ResourceAllocator(config.allocator)
            self.solve_key: Any = config.allocator
        else:
            self.allocator = None
            self.baseline = get_baseline(config.scheme)
            self.solve_key = self

        # -- dynamic-fleet state over the device universe -------------------
        self.churn: ChurnSchedule | None = (
            resolve_churn(
                config.churn,
                num_devices=self.num_clients,
                rounds=config.rounds,
                seed=config.seed,
            )
            if config.churn is not None
            else None
        )
        self.batteries: list[Battery] | None = None
        self.battery_policy = "graceful"
        if config.battery is not None:
            capacity, initial_soc, self.battery_policy = config.battery_spec()
            self.batteries = [
                Battery(capacity_j=capacity, charge_j=capacity * initial_soc)
                for _ in range(self.num_clients)
            ]
        self.estimator = (
            ProfileEstimator(self.num_clients, params=dict(config.estimation_params))
            if config.estimate_profiles
            else None
        )
        self.fleet_dynamic = self.churn is not None or self.batteries is not None
        self.present = np.ones(self.num_clients, dtype=bool)
        if self.churn is not None:
            self.present[:] = False
            self.present[list(self.churn.initial_present)] = True
        self.alive = np.ones(self.num_clients, dtype=bool)
        self.elapsed = 0.0
        self.consumed = 0.0

    def solve_group(
        self, problems: Sequence[JointProblem]
    ) -> list[AllocationResult | Exception]:
        """Solve one round's problems of every run sharing this solve key.

        A failing lane's exception is returned in its slot.
        """
        if self.allocator is not None:
            return self.allocator.solve_batch(problems, return_exceptions=True)
        (problem,) = problems
        try:
            return [self.baseline(problem)]
        except Exception as exc:  # repro-lint: disable=RL005 -- run isolation: a failing baseline solve fails only its own run
            return [exc]

    def prepare_round(self, round_index: int) -> JointProblem:
        """Round ``round_index``'s allocation problem over the active fleet.

        Applies the round's churn events, fixes the active set, redraws the
        fading and keeps the true subsystem for :meth:`finish_round`; the
        problem itself is posed on the estimated profiles when estimation
        is on.
        """
        config = self.config
        self.rng = np.random.default_rng((config.seed, _ROUND_STREAM + round_index))
        self.arrived: tuple[int, ...] = ()
        self.departed: tuple[int, ...] = ()
        if self.churn is not None and round_index >= 2:
            self.arrived, self.departed = self.churn.events_for_round(round_index)
            self.present[list(self.arrived)] = True
            self.present[list(self.departed)] = False
        self.active = np.flatnonzero(self.present & self.alive)
        if self.active.size == 0:
            raise BatteryDrainedError(
                f"no device can train at round {round_index}: every "
                "present device's battery is drained"
            )
        system = self.base_system
        if self.fading is not None:
            # Fading is always drawn over the full universe so the
            # per-round stream never shifts with the fleet shape.
            factors = self.fading.sample_linear(self.num_clients, self.rng)
            system = system.with_gains(system.gains * factors)
        if self.active.size != self.num_clients:
            system = system.with_devices(self.active)
        self.round_system = system
        if self.estimator is not None:
            system = self.estimator.estimated_system(system, self.active)
        return JointProblem(system, self.weights, deadline_s=config.deadline_s)

    def finish_round(
        self, round_index: int, result: AllocationResult, timings: StageTimings
    ) -> RoundRecord:
        """Price, select, train, drain and estimate on the solved round.

        The record holds ``timings.seconds`` itself, so the caller's
        enclosing ``fl_round`` stage lands in it when the round closes.
        """
        config = self.config
        allocation = result.allocation
        active = self.active
        # Pricing always uses the *true* subsystem: an allocation solved on
        # estimated profiles is charged what it really costs, which is what
        # makes the estimation gap measurable.
        compute_time = self.round_system.computation_time_s(allocation.frequency_hz)
        upload_time = self.round_system.upload_time_s(
            allocation.power_w, allocation.bandwidth_hz
        )
        per_time = compute_time + upload_time
        per_energy = transmission_energy_j(
            allocation.power_w, upload_time
        ) + self.round_system.computation_energy_j(allocation.frequency_hz)
        with stage("fl_select", timings):
            soc = (
                np.array([self.batteries[i].state_of_charge for i in active])
                if self.batteries is not None
                else None
            )
            selected_sub = select_clients(
                config.selection,
                SelectionContext(
                    round_index=round_index,
                    num_clients=active.size,
                    per_device_time_s=per_time,
                    per_device_energy_j=per_energy,
                    round_deadline_s=result.round_deadline_s,
                    rng=self.rng,
                    params=config.selection_params,
                    state_of_charge=soc,
                ),
            )
        selected = active[selected_sub]
        round_time = float(np.max(per_time[selected_sub]))
        round_energy = float(np.sum(per_energy[selected_sub]))
        with stage("fl_train", timings):
            train_loss, test_loss, test_accuracy = self.server.run_round(
                round_index,
                self.base_system.local_iterations,
                client_indices=selected.tolist(),
            )
        retired: tuple[int, ...] = ()
        soc_min: float | None = None
        if self.batteries is not None:
            retired = self._drain_batteries(round_index, selected_sub, per_energy)
            alive_soc = [
                battery.state_of_charge
                for battery, alive in zip(self.batteries, self.alive)
                if alive
            ]
            soc_min = min(alive_soc) if alive_soc else 0.0
        est_errors: dict[str, float] = {}
        if self.estimator is not None:
            self.estimator.observe_round(
                self.base_system,
                selected,
                frequency_hz=allocation.frequency_hz[selected_sub],
                power_w=allocation.power_w[selected_sub],
                bandwidth_hz=allocation.bandwidth_hz[selected_sub],
                compute_time_s=compute_time[selected_sub],
                upload_time_s=upload_time[selected_sub],
            )
            est_errors = self.estimator.error_report(self.base_system)
        self.elapsed += round_time
        self.consumed += round_energy
        return RoundRecord(
            round_index=round_index,
            selected=tuple(int(i) for i in selected),
            round_time_s=round_time,
            elapsed_time_s=self.elapsed,
            round_energy_j=round_energy,
            consumed_energy_j=self.consumed,
            train_loss=train_loss,
            test_loss=test_loss,
            test_accuracy=test_accuracy,
            allocator_iterations=result.iterations,
            allocator_objective=result.objective,
            round_deadline_s=result.round_deadline_s,
            timings=timings.seconds,
            fleet_size=int(active.size) if self.fleet_dynamic else None,
            arrived=self.arrived,
            departed=self.departed,
            retired=retired,
            battery_soc_min=soc_min,
            estimation_cycles_rel_err=est_errors.get("cycles_rel_err"),
            estimation_gain_rel_err=est_errors.get("gain_rel_err"),
        )

    def _drain_batteries(
        self, round_index: int, selected_sub: np.ndarray, per_energy: np.ndarray
    ) -> tuple[int, ...]:
        """Charge this round's energy to the selected devices' batteries.

        Returns the devices retired this round.  Under the ``graceful``
        policy an over-budget draw empties the battery and retires the
        device (the next round re-solves around it); ``loud`` raises
        instead — the run fails exactly where a real deployment would have
        lost a device mid-round.
        """
        retired: list[int] = []
        for sub in selected_sub:
            device = int(self.active[sub])
            battery = self.batteries[device]
            draw = float(per_energy[int(sub)])
            if battery.can_supply(draw):
                battery.draw(draw)
            elif self.battery_policy == "loud":
                raise BatteryDrainedError(
                    f"device {device} needs {draw:.3f} J for round "
                    f"{round_index} but only {battery.charge_j:.3f} J remain "
                    "(battery policy 'loud')"
                )
            else:
                battery.draw(max(min(draw, battery.charge_j), 0.0))
            if battery.state_of_charge <= _DEAD_SOC:
                self.alive[device] = False
                retired.append(device)
        return tuple(retired)


def run_round_loop(
    config: RoundLoopConfig, system: SystemModel | None = None
) -> RoundLoopReport:
    """Convenience wrapper: build the loop and run it."""
    return FLRoundLoop(config, system=system).run()
