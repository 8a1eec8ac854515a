"""MILR error-recovery phase (self-healing).

For every layer flagged by detection, the recovery engine:

1. regenerates / reads the nearest *preceding* checkpoint and moves it forward
   to the layer with a linearized forward pass (golden input),
2. reads the nearest *succeeding* checkpoint (or the final-output checkpoint)
   and moves it backwards with layer inversions (golden output),
3. calls the layer's parameter-solving function ``R(x, y)`` and overwrites the
   corrupted parameters with the recovered values.

When several layers between a pair of checkpoints are erroneous, full recovery
cannot be guaranteed; as in the paper, recovery is attempted anyway in layer
order and the degradation shows up as reduced post-recovery accuracy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.checkpoint import CheckpointStore
from repro.core.detection import DetectionReport
from repro.core.handlers import handler_for
from repro.core.inversion import invert_layer
from repro.core.passes import linearized_forward
from repro.core.planner import MILRPlan, RecoveryStrategy
from repro.core.solvers import solve_layer_parameters
from repro.exceptions import RecoveryError
from repro.nn.model import Sequential
from repro.prng import SeededTensorGenerator

__all__ = ["LayerRecoveryResult", "RecoveryReport", "RecoveryEngine"]


@dataclass
class LayerRecoveryResult:
    """Outcome of recovering one layer."""

    index: int
    name: str
    strategy: RecoveryStrategy
    parameters_updated: int
    fully_determined: bool
    elapsed_seconds: float
    notes: str = ""


@dataclass
class RecoveryReport:
    """Result of one recovery pass over all flagged layers."""

    results: list[LayerRecoveryResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def recovered_layers(self) -> list[int]:
        return [result.index for result in self.results]

    @property
    def all_fully_determined(self) -> bool:
        return all(result.fully_determined for result in self.results)


class RecoveryEngine:
    """Executes the MILR recovery phase on the live model."""

    def __init__(
        self,
        model: Sequential,
        plan: MILRPlan,
        store: CheckpointStore,
        prng: SeededTensorGenerator,
    ):
        self._model = model
        self._plan = plan
        self._store = store
        self._prng = prng

    # ------------------------------------------------------------------ #
    def _checkpoint_activation(self, index: int) -> np.ndarray:
        """Activation entering layer ``index`` (regenerated for index 0)."""
        if index == 0:
            return self._prng.detection_input(self._model.input_shape, batch=1)
        return self._store.input_checkpoint(index)

    def golden_input_for(self, index: int) -> np.ndarray:
        """Move the nearest preceding checkpoint forward to layer ``index``."""
        start = self._plan.preceding_checkpoint(index)
        activation = self._checkpoint_activation(start)
        return linearized_forward(self._model, self._plan, activation, start, index)

    def golden_output_for(self, index: int) -> np.ndarray:
        """Move the nearest succeeding checkpoint backwards to layer ``index``'s output."""
        layer_count = len(self._model.layers)
        stop = self._plan.succeeding_checkpoint(index, layer_count)
        if stop == layer_count:
            activation = self._store.require_final_output()
        else:
            activation = self._checkpoint_activation(stop)
        # Invert layers stop-1, stop-2, ..., index+1.
        for back_index in range(stop - 1, index, -1):
            layer = self._model.layers[back_index]
            layer_plan = self._plan.plan_for(back_index)
            activation = invert_layer(
                layer,
                layer_plan,
                activation,
                self._store,
                self._prng,
            )
        return activation

    def _is_self_contained(self, index: int) -> bool:
        """Whether the layer's solve uses only stored dummy data."""
        layer = self._model.layers[index]
        layer_plan = self._plan.plan_for(index)
        return handler_for(layer, index).is_self_contained(layer, layer_plan)

    # ------------------------------------------------------------------ #
    def recover_layer(
        self, index: int, suspect_mask: Optional[np.ndarray] = None
    ) -> LayerRecoveryResult:
        """Recover the parameters of layer ``index`` and write them back."""
        layer = self._model.layers[index]
        layer_plan = self._plan.plan_for(index)
        if layer_plan.recovery_strategy is RecoveryStrategy.NONE:
            raise RecoveryError(f"layer {layer.name!r} has no parameters to recover")
        started = time.perf_counter()
        if self._is_self_contained(index):
            # Self-contained layers solve from their stored dummy system
            # alone; no need to move checkpoints through (possibly erroneous)
            # neighbours.
            golden_input = None
            golden_output = None
        else:
            golden_input = self.golden_input_for(index)
            golden_output = self.golden_output_for(index)
        result = solve_layer_parameters(
            layer,
            layer_plan,
            golden_input,
            golden_output,
            self._store,
            self._prng,
            suspect_mask=suspect_mask,
        )
        layer.set_weights(result.parameters)
        elapsed = time.perf_counter() - started
        return LayerRecoveryResult(
            index=index,
            name=layer.name,
            strategy=layer_plan.recovery_strategy,
            parameters_updated=result.parameters_updated,
            fully_determined=result.fully_determined,
            elapsed_seconds=elapsed,
            notes=result.notes,
        )

    def recovery_order(self, erroneous_layers: list[int]) -> list[int]:
        """Order in which flagged layers are recovered.

        Self-contained layers (those solving purely from stored dummy data)
        are recovered first: their result does not depend on any other
        layer, and once they are correct the forward/backward passes used by
        the remaining layers travel through fewer erroneous layers.  Within
        each group the paper's sequential layer order is kept.
        """
        ordered = sorted(erroneous_layers)
        self_contained = [index for index in ordered if self._is_self_contained(index)]
        dependent = [index for index in ordered if not self._is_self_contained(index)]
        return self_contained + dependent

    def recover(self, detection_report: DetectionReport) -> RecoveryReport:
        """Recover every layer flagged in ``detection_report``."""
        report = RecoveryReport()
        started = time.perf_counter()
        for index in self.recovery_order(detection_report.erroneous_layers):
            detection_result = detection_report.result_for(index)
            report.results.append(
                self.recover_layer(index, suspect_mask=detection_result.suspect_mask)
            )
        report.results.sort(key=lambda result: result.index)
        report.elapsed_seconds = time.perf_counter() - started
        return report
