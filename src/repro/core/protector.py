"""Top-level MILR API: :class:`MILRProtector`.

Typical usage::

    protector = MILRProtector(model, MILRConfig(master_seed=7))
    protector.initialize()            # run once while the weights are clean
    ...                               # memory errors corrupt model weights
    detection = protector.detect()    # scheduled periodically
    if detection.any_errors:
        protector.recover(detection)  # self-healing
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.checkpoint import CheckpointStore
from repro.core.config import MILRConfig
from repro.core.detection import DetectionEngine, DetectionReport
from repro.core.initialization import build_checkpoint_store
from repro.core.overhead import ProtectionStorageComparison, compare_storage_overheads
from repro.core.planner import MILRPlan, plan_model
from repro.core.recovery import RecoveryEngine, RecoveryReport
from repro.exceptions import DetectionError
from repro.nn.model import Sequential
from repro.prng import SeededTensorGenerator
from repro.types import StorageReport

__all__ = ["MILRProtector"]


class MILRProtector:
    """Wraps a built :class:`Sequential` model with MILR protection.

    Args:
        model: The model to protect.  The protector holds a reference, not a
            copy: recovery writes corrected parameters back into this model.
        config: MILR configuration (seeds, tolerances, strategy preferences).
    """

    def __init__(self, model: Sequential, config: Optional[MILRConfig] = None):
        self.model = model
        self.config = config if config is not None else MILRConfig()
        self.prng = SeededTensorGenerator(self.config.master_seed)
        self.plan: Optional[MILRPlan] = None
        self.store: Optional[CheckpointStore] = None
        self._detection_engine: Optional[DetectionEngine] = None
        self._recovery_engine: Optional[RecoveryEngine] = None

    # ------------------------------------------------------------------ #
    @property
    def initialized(self) -> bool:
        """Whether :meth:`initialize` has been run."""
        return self.store is not None

    def initialize(self) -> MILRPlan:
        """Run the MILR initialization phase (plan + checkpoint everything)."""
        self.plan = plan_model(self.model, self.config)
        self.store = build_checkpoint_store(self.model, self.plan, self.config, self.prng)
        self._detection_engine = DetectionEngine(
            self.model, self.plan, self.store, self.config, self.prng
        )
        self._recovery_engine = RecoveryEngine(self.model, self.plan, self.store, self.prng)
        return self.plan

    def _require_initialized(self) -> None:
        if not self.initialized or self._detection_engine is None or self._recovery_engine is None:
            raise DetectionError("MILRProtector.initialize() must be called first")

    # ------------------------------------------------------------------ #
    def detect(self, layer_indices: Optional[Iterable[int]] = None) -> DetectionReport:
        """Run the error-detection phase.

        By default every parameterized layer is checked; passing
        ``layer_indices`` restricts the pass to a subset, which lets an online
        scrubber interleave short detection slices with inference instead of
        stopping the world for a full pass.
        """
        self._require_initialized()
        assert self._detection_engine is not None
        return self._detection_engine.detect(layer_indices=layer_indices)

    def recover(self, detection_report: DetectionReport) -> RecoveryReport:
        """Run the error-recovery phase for the layers flagged in the report."""
        self._require_initialized()
        assert self._recovery_engine is not None
        return self._recovery_engine.recover(detection_report)

    def detect_and_recover(self) -> tuple[DetectionReport, Optional[RecoveryReport]]:
        """Detection followed by recovery when errors were found."""
        detection = self.detect()
        if not detection.any_errors:
            return detection, None
        return detection, self.recover(detection)

    # ------------------------------------------------------------------ #
    def storage_report(self) -> StorageReport:
        """MILR storage overhead of the protected model (bytes + breakdown)."""
        self._require_initialized()
        assert self.store is not None
        return self.store.storage_report(weights_bytes=self.model.parameter_bytes())

    def storage_comparison(self, network_name: Optional[str] = None) -> ProtectionStorageComparison:
        """Backup vs ECC vs MILR vs ECC+MILR storage comparison."""
        self._require_initialized()
        assert self.store is not None
        return compare_storage_overheads(self.model, self.store, network_name)

    # ------------------------------------------------------------------ #
    @property
    def recovery_engine(self) -> RecoveryEngine:
        """Direct access to the recovery engine (used by experiments)."""
        self._require_initialized()
        assert self._recovery_engine is not None
        return self._recovery_engine

    @property
    def detection_engine(self) -> DetectionEngine:
        """Direct access to the detection engine (used by experiments)."""
        self._require_initialized()
        assert self._detection_engine is not None
        return self._detection_engine
