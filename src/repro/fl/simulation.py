"""System-aware federated training simulation.

This module closes the loop between the paper's two halves: the resource
allocation (which prices every global round in joules and seconds) and the
actual FedAvg training (which decides how many rounds are needed for a given
accuracy).  A :class:`FederatedSimulation` runs FedAvg round by round and, at
each round, charges every device the computation/transmission energy and
time implied by a chosen :class:`~repro.core.allocation.ResourceAllocation`,
producing accuracy-versus-wallclock and accuracy-versus-energy curves.

The allocation here is *static* — one ``(p, B, f)`` prices every round.
For the closed loop where the allocator re-solves round by round as the
channel evolves (fresh fading draws, a fresh solve per round, client
selection), see :mod:`repro.fl.roundloop`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.allocation import ResourceAllocation
from ..exceptions import ConfigurationError
from ..system import SystemModel
from .server import FedAvgServer

__all__ = ["RoundCost", "SimulationReport", "FederatedSimulation"]


@dataclass(frozen=True)
class RoundCost:
    """Energy and time cost of one global round under a given allocation."""

    round_time_s: float
    round_energy_j: float
    per_device_time_s: np.ndarray
    per_device_energy_j: np.ndarray


@dataclass
class SimulationReport:
    """Training curves annotated with cumulative system cost."""

    rounds: list[int] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    elapsed_time_s: list[float] = field(default_factory=list)
    consumed_energy_j: list[float] = field(default_factory=list)

    def append(
        self,
        round_index: int,
        accuracy: float,
        loss: float,
        elapsed_s: float,
        energy_j: float,
    ) -> None:
        self.rounds.append(round_index)
        self.test_accuracy.append(accuracy)
        self.test_loss.append(loss)
        self.elapsed_time_s.append(elapsed_s)
        self.consumed_energy_j.append(energy_j)

    @property
    def total_time_s(self) -> float:
        return self.elapsed_time_s[-1] if self.elapsed_time_s else 0.0

    @property
    def total_energy_j(self) -> float:
        return self.consumed_energy_j[-1] if self.consumed_energy_j else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else float("nan")

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round reaching ``target`` accuracy, or None if never reached."""
        for round_index, acc in zip(self.rounds, self.test_accuracy):
            if acc >= target:
                return round_index
        return None

    def time_to_accuracy(self, target: float) -> float | None:
        """Wall-clock seconds until ``target`` accuracy, or None if never reached."""
        for elapsed, acc in zip(self.elapsed_time_s, self.test_accuracy):
            if acc >= target:
                return elapsed
        return None

    def energy_to_accuracy(self, target: float) -> float | None:
        """Joules spent until ``target`` accuracy, or None if never reached."""
        for energy, acc in zip(self.consumed_energy_j, self.test_accuracy):
            if acc >= target:
                return energy
        return None


class FederatedSimulation:
    """FedAvg training priced by the wireless/CPU cost models."""

    def __init__(
        self,
        system: SystemModel,
        server: FedAvgServer,
        allocation: ResourceAllocation,
    ) -> None:
        self.system = system
        self.server = server
        self.allocation = allocation
        self._validate()

    def _validate(self) -> None:
        """Check the system / client / allocation sizes agree.

        Re-run by :meth:`run` so a server whose client list was mutated
        after construction (or a swapped-in allocation) still fails loudly
        instead of silently pricing the wrong fleet.
        """
        if self.server.num_clients != self.system.num_devices:
            raise ConfigurationError(
                "the FedAvg server must have exactly one client per device "
                f"({self.server.num_clients} clients vs {self.system.num_devices} devices)"
            )
        if self.allocation.num_devices != self.server.num_clients:
            # Together with the check above this also pins the allocation
            # to the system size, so no third comparison is needed.
            raise ConfigurationError(
                "the resource allocation must cover exactly the partitioned "
                f"clients: the allocation prices {self.allocation.num_devices} "
                f"device(s) but the server aggregates {self.server.num_clients} "
                "client(s) — rebuild the allocation (or the client partition) "
                "so the counts match"
            )

    def round_cost(self) -> RoundCost:
        """Energy and time of one global round under the bound allocation."""
        per_device_time = self.allocation.per_device_time_s(self.system)
        per_device_energy = self.allocation.per_device_energy_j(self.system)
        return RoundCost(
            round_time_s=float(np.max(per_device_time)),
            round_energy_j=float(per_device_energy.sum()),
            per_device_time_s=per_device_time,
            per_device_energy_j=per_device_energy,
        )

    def run(
        self,
        global_rounds: int | None = None,
        local_iterations: int | None = None,
        *,
        time_budget_s: float | None = None,
        energy_budget_j: float | None = None,
        target_accuracy: float | None = None,
    ) -> SimulationReport:
        """Run the priced FedAvg simulation.

        Stops at ``global_rounds`` (default: the system's ``R_g``) or earlier
        when a time budget, an energy budget, or a target accuracy is hit.
        """
        self._validate()
        rounds = global_rounds if global_rounds is not None else self.system.global_rounds
        iterations = (
            local_iterations if local_iterations is not None else self.system.local_iterations
        )
        if rounds <= 0 or iterations <= 0:
            raise ConfigurationError("rounds and iterations must be positive")

        cost = self.round_cost()
        report = SimulationReport()
        elapsed = 0.0
        consumed = 0.0
        for round_index in range(1, rounds + 1):
            _, test_loss, test_acc = self.server.run_round(round_index, iterations)
            elapsed += cost.round_time_s
            consumed += cost.round_energy_j
            report.append(round_index, test_acc, test_loss, elapsed, consumed)
            if time_budget_s is not None and elapsed >= time_budget_s:
                break
            if energy_budget_j is not None and consumed >= energy_budget_j:
                break
            if target_accuracy is not None and test_acc >= target_accuracy:
                break
        return report
