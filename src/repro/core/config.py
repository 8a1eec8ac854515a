"""Configuration of the MILR protection system."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MILRConfig"]


@dataclass(frozen=True)
class MILRConfig:
    """Tunables of the MILR initialization / detection / recovery pipeline.

    Attributes:
        master_seed: Seed stored in error-resistant memory; all detection
            inputs, recovery inputs, dummy parameters and dummy inputs are
            regenerated from it.
        detection_rtol: Relative tolerance used when comparing a layer's
            freshly computed detection output against the stored partial
            checkpoint.  The paper's detection is "lightweight": errors must
            change the output noticeably; a small tolerance also keeps
            recovered (slightly rounded) parameters from being re-flagged.
        detection_atol: Absolute tolerance companion to ``detection_rtol``.
        crc_group_size: Number of weights per CRC group in the 2-D CRC scheme.
        crc_bits: CRC width (8 or 32) used by the 2-D scheme.
        detection_batch: Number of PRNG rows used for per-layer detection
            inputs (1 matches the paper's partial-checkpoint cost analysis).
        prefer_partial_conv_recovery: If True, convolution layers whose full
            parameter solve would be under-determined (``G^2 < F^2 Z``) use
            2-D-CRC-based partial recoverability rather than storing dummy
            inputs, mirroring the paper's choice for the larger networks.
        always_store_conv_crc: Store the 2-D CRC codes for *every* convolution
            layer, not only the ones whose recovery strategy requires them.
            The online service runtime enables this: the codes both localize
            corrupted weights and verify bit-flip corrections without touching
            any neighbouring layer, which lets the scrubber heal several
            adjacent corrupted layers that would otherwise deadlock each
            other's checkpoint-based recovery passes.
        bias_detection_uses_sum: Detect bias-layer errors with the stored
            parameter sum (paper Sec. IV-E-c); disabling it stores a full copy
            of the bias instead (more storage, exact detection).
    """

    master_seed: int = 2021
    detection_rtol: float = 1e-3
    detection_atol: float = 1e-5
    crc_group_size: int = 4
    crc_bits: int = 8
    detection_batch: int = 1
    prefer_partial_conv_recovery: bool = True
    always_store_conv_crc: bool = False
    bias_detection_uses_sum: bool = True

    def __post_init__(self) -> None:
        if self.detection_rtol < 0 or self.detection_atol < 0:
            raise ValueError("detection tolerances must be non-negative")
        if self.detection_batch < 1:
            raise ValueError("detection_batch must be at least 1")
        if self.crc_group_size < 1:
            raise ValueError("crc_group_size must be positive")
        if self.crc_bits not in (8, 32):
            raise ValueError("crc_bits must be 8 or 32")
