"""Protection handler for :class:`~repro.nn.layers.dense.Dense` layers.

Dense layers solve ``X @ W = Y`` (paper Sec. IV-A).  The planner stores a full
self-contained dummy system (N PRNG input rows and their outputs) so the solve
never has to trust an activation that travelled through another, possibly
erroneous, layer.  That system is square, so recovery solves it by LU
factorization.  Inversion pads the weight matrix with dummy parameter columns
when ``P < N``.

The service's repair chain first tries a sparse residual repair on the same
stored system: a few corrupted words per output column are located and
re-solved directly, so a live heal skips the full ``N x N`` solve.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.handlers.base import (
    DetectionInput,
    LayerProtectionHandler,
    register_handler,
)
from repro.core.inversion import invert_dense
from repro.core.planner import InversionStrategy, LayerPlan, RecoveryStrategy
from repro.core.repair import sparse_kernel_repair
from repro.core.solvers import _dense_dummy_system, solve_dense_parameters
from repro.nn.layers import Dense
from repro.types import FLOAT_DTYPE

__all__ = ["DenseProtectionHandler"]


@register_handler(Dense)
class DenseProtectionHandler(LayerProtectionHandler):
    """Dense: self-contained square dummy-row system solved by LU, dummy-column inversion.

    The repair chain's residual hook runs orthogonal matching pursuit on that
    stored system instead of solving it whole: when at most 8 words per
    output column are corrupted, their golden values come out of a few tiny
    least-squares fits, which the scrubber's fingerprint-verified snap makes
    bit-exact.  Campaigns and :meth:`solve` keep the full LU solve.
    """

    #: Dense solves are neighbour-independent (stored dummy system), but not
    #: as cheap as the stored-data-only repairs of rank 0.
    repair_rank = 1

    def plan(self, layer: Dense, index: int, config) -> LayerPlan:
        """Plan a dense layer: Y = X (M, N) @ W (N, P)."""
        features_in = layer.features_in
        features_out = layer.features_out
        plan = LayerPlan(
            index=index,
            name=layer.name,
            kind="Dense",
            parameter_count=layer.parameter_count,
            recovery_strategy=RecoveryStrategy.DENSE_FULL,
            inversion_strategy=InversionStrategy.DENSE,
        )
        # Detection: one stored output value per parameter column.
        plan.partial_checkpoint_values = features_out

        # Inversion (backward pass) requires P >= N; otherwise pad with dummy
        # parameter columns whose outputs (for the golden recovery activation,
        # one row) must be stored.
        if features_out < features_in:
            plan.dummy_parameter_columns = features_in - features_out
            plan.dummy_output_values += 1 * plan.dummy_parameter_columns
            plan.notes.append(
                f"inversion needs {plan.dummy_parameter_columns} dummy parameter columns"
            )

        # Parameter solving requires M >= N rows.  The golden recovery
        # activation only provides one row, so PRNG dummy rows (with stored
        # outputs) supply the rest.  A full set of N dummy rows is stored --
        # one more than strictly necessary -- so that dense solving is
        # *self-contained*: it never has to trust an activation that travelled
        # through another, possibly erroneous, layer.  This is what lets MILR
        # recover several dense layers between the same pair of checkpoints
        # (the paper's whole-weight results at high error rates), at a storage
        # cost of one extra output row.
        plan.dummy_input_rows = features_in
        plan.dummy_output_values += plan.dummy_input_rows * features_out
        plan.notes.append(
            f"solving uses {plan.dummy_input_rows} self-contained dummy input rows"
        )
        return plan

    def probe(
        self, layer: Dense, index: int, detection_input: DetectionInput, config
    ) -> np.ndarray:
        det_in = detection_input(index, layer.input_shape)
        return layer.forward(det_in)[0].copy()

    def init_recovery_data(self, layer: Dense, plan, golden_input, store, prng, config):
        weights = layer.get_weights()
        if plan.dummy_input_rows > 0:
            dummy_rows = prng.dummy_inputs(
                f"{layer.name}/solve-rows",
                (plan.dummy_input_rows, layer.features_in),
            )
            store.dense_dummy_row_outputs[plan.index] = (
                dummy_rows.astype(np.float64) @ weights.astype(np.float64)
            ).astype(FLOAT_DTYPE)
        if plan.dummy_parameter_columns > 0:
            dummy_columns = prng.dummy_parameters(
                f"{layer.name}/invert-columns",
                (layer.features_in, plan.dummy_parameter_columns),
            )
            store.dense_dummy_column_outputs[plan.index] = (
                golden_input.astype(np.float64) @ dummy_columns.astype(np.float64)
            ).astype(FLOAT_DTYPE)

    def is_self_contained(self, layer: Dense, plan) -> bool:
        """Whether the stored dummy rows already form a complete system."""
        return plan.dummy_input_rows >= layer.features_in

    def invert(self, layer: Dense, plan, outputs, store, prng) -> np.ndarray:
        return invert_dense(layer, plan, outputs, store, prng)

    def solve(
        self,
        layer: Dense,
        plan,
        golden_input,
        golden_output,
        store,
        prng,
        suspect_mask: Optional[np.ndarray] = None,
    ):
        return solve_dense_parameters(layer, plan, golden_input, golden_output, store, prng)

    # ------------------------------------------------------------------ #
    # Bit-exact repair chain
    # ------------------------------------------------------------------ #
    def residual_repair_estimate(
        self, layer: Dense, plan, corrupted, engine
    ) -> Optional[np.ndarray]:
        """Sparse repair on the stored dummy system, or ``None``.

        Only a self-contained system qualifies: it needs no golden pass, so
        corrupted neighbours cannot skew it.  The estimate is returned only
        when every column's residual was explained and at least one word
        changed; a corruption below the pursuit's tolerance changes nothing
        and is left to the solver.
        """
        if not self.is_self_contained(layer, plan):
            return None
        rows, outputs = _dense_dummy_system(layer, plan, engine.store, engine.prng)
        estimate, complete = sparse_kernel_repair(rows, outputs, corrupted)
        if complete and np.any(estimate.view(np.uint32) != corrupted.view(np.uint32)):
            return estimate
        return None
