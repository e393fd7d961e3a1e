"""Evaluation metrics and per-round records for the FedAvg simulators.

The scalar helpers (:func:`accuracy`, :func:`cross_entropy`) score a model;
:class:`RoundRecord` and :class:`RoundLoopReport` record what one global
round of the closed-loop simulation *cost*: the wall-clock and energy
implied by that round's re-solved resource allocation, the training
quality it bought, and the allocator's own effort (iterations, per-stage
timings).  The report is what the ``repro fl`` CLI prints and what the
``flcurve`` experiment folds into accuracy-versus-wall-clock tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

__all__ = ["accuracy", "cross_entropy", "RoundRecord", "RoundLoopReport"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must have the same shape")
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of an empty batch")
    return float(np.mean(predictions == labels))


def cross_entropy(probabilities: np.ndarray, labels: np.ndarray, eps: float = 1e-12) -> float:
    """Mean negative log-likelihood of the true labels."""
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if probabilities.ndim != 2 or probabilities.shape[0] != labels.shape[0]:
        raise ValueError("probabilities must be (num_samples, num_classes)")
    picked = probabilities[np.arange(labels.shape[0]), labels]
    return float(-np.mean(np.log(picked + eps)))


@dataclass(frozen=True)
class RoundRecord:
    """Everything one closed-loop global round produced and cost."""

    #: 1-based global round index.
    round_index: int
    #: The clients that trained and aggregated this round (sorted indices).
    selected: tuple[int, ...]
    #: Wall-clock of this round: the slowest *selected* client's
    #: computation + upload time under the round's allocation.
    round_time_s: float
    #: Cumulative wall-clock through this round.
    elapsed_time_s: float
    #: Energy spent by the selected clients this round.
    round_energy_j: float
    #: Cumulative energy through this round.
    consumed_energy_j: float
    #: FedAvg-weighted mean of the selected clients' final minibatch losses.
    train_loss: float
    #: Global-model loss on the held-out test split after aggregation.
    test_loss: float
    #: Global-model accuracy on the held-out test split after aggregation.
    test_accuracy: float
    #: Outer Algorithm-2 iterations the round's allocation solve took.
    allocator_iterations: int
    #: The allocation solve's weighted objective value.
    allocator_objective: float
    #: The per-round deadline ``T`` the allocator chose (or was given).
    round_deadline_s: float
    #: Per-stage wall-clock of the round: the five ``fl_*`` stages
    #: (``fl_round`` enclosing ``fl_channel`` / ``fl_allocate`` /
    #: ``fl_select`` / ``fl_train``).  When the round's solve was shared by
    #: several lockstep runs (one ``solve_batch``), each run is charged the
    #: batch wall divided by the lanes, in ``fl_allocate`` and ``fl_round``.
    #: The solver's own stages go to the ambient collector (e.g. a sweep
    #: task's ``timings``), not here.
    timings: Mapping[str, float] = field(default_factory=dict)

    # -- dynamic-fleet fields (None/empty when the layer is disabled, so a
    # -- frozen-fleet record is byte-identical to the pre-dynamic schema) ----
    #: Number of active (present and alive) devices this round, or None
    #: when churn/drain are off (the fleet is the full universe).
    fleet_size: int | None = None
    #: Devices that (re-)arrived / departed via churn before this round.
    arrived: tuple[int, ...] = ()
    departed: tuple[int, ...] = ()
    #: Devices retired this round because their battery drained.
    retired: tuple[int, ...] = ()
    #: Smallest state-of-charge across alive devices after this round's
    #: draws, or None when battery tracking is off.
    battery_soc_min: float | None = None
    #: Always None: every round solves cold, so no chain can puncture.
    #: Kept so that tools reading round records still find the field.
    resolve_punctured: bool | None = None
    #: Mean relative error of the estimated profiles against the oracle
    #: (compute cycles / large-scale gains), or None when estimation is off.
    estimation_cycles_rel_err: float | None = None
    estimation_gain_rel_err: float | None = None


@dataclass
class RoundLoopReport:
    """The per-round trajectory of one closed-loop FL training run."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregate views -----------------------------------------------------
    @property
    def final_accuracy(self) -> float:
        return self.records[-1].test_accuracy if self.records else float("nan")

    @property
    def total_time_s(self) -> float:
        return self.records[-1].elapsed_time_s if self.records else 0.0

    @property
    def total_energy_j(self) -> float:
        return self.records[-1].consumed_energy_j if self.records else 0.0

    @property
    def total_allocator_iterations(self) -> int:
        return sum(r.allocator_iterations for r in self.records)

    def stage_seconds(self, name: str) -> float:
        """Total seconds charged to stage ``name`` across every round."""
        return float(sum(r.timings.get(name, 0.0) for r in self.records))

    def time_to_accuracy(self, target: float) -> float | None:
        """Wall-clock seconds until ``target`` accuracy, or None if never."""
        for record in self.records:
            if record.test_accuracy >= target:
                return record.elapsed_time_s
        return None

    def rounds_to_accuracy(self, target: float) -> int | None:
        """First round reaching ``target`` accuracy, or None if never."""
        for record in self.records:
            if record.test_accuracy >= target:
                return record.round_index
        return None

    # -- serialisation -------------------------------------------------------
    def as_rows(self) -> list[dict[str, Any]]:
        """One plain dict per round (what the CLI table and CSV show).

        Dynamic-fleet columns (fleet size, churn/retirement counts) appear
        only when the run produced them, so frozen-fleet output is
        byte-identical to the pre-dynamic format.
        """
        dynamic = bool(self.records) and self.records[0].fleet_size is not None
        rows = []
        for record in self.records:
            row: dict[str, Any] = {
                "round": record.round_index,
                "selected": len(record.selected),
                "round_time_s": record.round_time_s,
                "elapsed_s": record.elapsed_time_s,
                "energy_j": record.consumed_energy_j,
                "accuracy": record.test_accuracy,
                "test_loss": record.test_loss,
                "train_loss": record.train_loss,
                "allocator_iterations": record.allocator_iterations,
            }
            if dynamic:
                row["fleet"] = record.fleet_size
                row["arrived"] = len(record.arrived)
                row["departed"] = len(record.departed)
                row["retired"] = len(record.retired)
            rows.append(row)
        return rows

    def to_table(self):
        """The per-round trajectory as a :class:`~repro.experiments.results.ResultTable`."""
        # Imported lazily: the experiments package depends on repro.fl via
        # the flcurve experiment, so a module-level import would cycle.
        from ..experiments.results import ResultTable

        return ResultTable.from_rows(
            "fl-roundloop",
            self.as_rows(),
            metadata={"x_axis": "elapsed_s", "rounds": len(self.records)},
        )

    def flat_metrics(self) -> dict[str, float]:
        """The trajectory flattened to scalar metrics (sweep-cache friendly).

        Per-round values are keyed ``r<round:03d>_<metric>`` so the sweep
        engine can average, cache and compare whole trajectories with its
        ordinary scalar-metric machinery.
        """
        metrics: dict[str, float] = {
            "rounds": float(len(self.records)),
            "final_accuracy": self.final_accuracy,
            "final_test_loss": self.records[-1].test_loss if self.records else float("nan"),
            "total_time_s": self.total_time_s,
            "total_energy_j": self.total_energy_j,
            "allocator_iterations": float(self.total_allocator_iterations),
        }
        for record in self.records:
            prefix = f"r{record.round_index:03d}"
            metrics[f"{prefix}_accuracy"] = record.test_accuracy
            metrics[f"{prefix}_test_loss"] = record.test_loss
            metrics[f"{prefix}_elapsed_s"] = record.elapsed_time_s
            metrics[f"{prefix}_energy_j"] = record.consumed_energy_j
            metrics[f"{prefix}_round_time_s"] = record.round_time_s
            metrics[f"{prefix}_selected"] = float(len(record.selected))
            # Dynamic-fleet metrics appear only when the layer produced
            # them, so frozen-fleet trajectories keep the historical key
            # set exactly (the golden regression test relies on this).
            if record.fleet_size is not None:
                metrics[f"{prefix}_fleet_size"] = float(record.fleet_size)
                metrics[f"{prefix}_arrived"] = float(len(record.arrived))
                metrics[f"{prefix}_departed"] = float(len(record.departed))
                metrics[f"{prefix}_retired"] = float(len(record.retired))
            if record.battery_soc_min is not None:
                metrics[f"{prefix}_battery_soc_min"] = record.battery_soc_min
            if record.estimation_cycles_rel_err is not None:
                metrics[f"{prefix}_est_cycles_rel_err"] = (
                    record.estimation_cycles_rel_err
                )
            if record.estimation_gain_rel_err is not None:
                metrics[f"{prefix}_est_gain_rel_err"] = (
                    record.estimation_gain_rel_err
                )
        return metrics
