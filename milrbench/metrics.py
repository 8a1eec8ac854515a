"""Metric tables and the result line every run prints.

``BENCHMARK.json`` at the repository root lists the same names and units;
a self-test keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "REPAIR_STRATEGIES",
    "SOLVE_KINDS",
    "Outcome",
    "result_line",
    "report_lines",
]

#: End-to-end metrics of every workload (name, unit, better).  Each workload
#: reports every one of them; ``milrbench/README.md`` gives the per-workload
#: definition.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("slo_met_frac", "ratio", "higher"),
)

#: Repair-chain stages counted by the service's metrics registry.
REPAIR_STRATEGIES = (
    "checkpoint_free",
    "residual_estimate",
    "solver_snap",
    "estimate_guided",
    "remap",
)

#: ``LayerPlan.kind`` of each solvable layer type -> metric suffix.
SOLVE_KINDS = {
    "Conv2D": "conv",
    "Dense": "dense",
    "Bias": "bias",
    "BatchNorm": "batchnorm",
    "DepthwiseConv2D": "depthwise",
}

#: Per-layer metrics of the traced run (name, unit, better).  A layer a
#: workload leaves idle reports 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # service.engine
    ("engine.submit_us", "us", "lower"),
    ("engine.wait_p50_ms", "ms", "lower"),
    ("engine.wait_p99_ms", "ms", "lower"),
    ("engine.batch_occupancy_mean", "count", "higher"),
    ("engine.handoff_us", "us", "lower"),
    ("engine.open.sent", "count", "higher"),
    ("engine.open.ok", "count", "higher"),
    ("engine.open.failed", "count", "lower"),
    ("engine.open.shed", "count", "lower"),
    ("engine.closed.sent", "count", "higher"),
    ("engine.closed.ok", "count", "higher"),
    ("engine.closed.failed", "count", "lower"),
    ("engine.closed.shed", "count", "lower"),
    ("generator.lag_p99_ms", "ms", "lower"),
    ("serve.wrong_output_frac", "ratio", "lower"),
    # nn
    ("nn.forward_us_per_sample", "us", "lower"),
    ("nn.forward_busy_frac", "ratio", "lower"),
    ("nn.fused_share", "ratio", "higher"),
    ("nn.plan_invalidations", "count", "lower"),
    ("nn.plan_compiles", "count", "lower"),
    ("nn.eval_us_per_sample", "us", "lower"),
    # core.detection
    ("core.detect_full_ms", "ms", "lower"),
    ("core.detect_slice_ms", "ms", "lower"),
    ("core.detect_busy_frac", "ratio", "lower"),
    # core.recovery
    ("core.recover_ms", "ms", "lower"),
    ("core.recover_self_ms", "ms", "lower"),
    *((f"core.solve_ms.{kind}", "ms", "lower") for kind in SOLVE_KINDS.values()),
    ("core.invert_ms", "ms", "lower"),
    # service.scrubber
    ("scrubber.scrub_ms", "ms", "lower"),
    ("scrubber.scrub_self_ms", "ms", "lower"),
    ("scrubber.detect_delay_ms", "ms", "lower"),
    ("scrubber.quarantine_ms", "ms", "lower"),
    # service.repair
    *(
        (f"repair.{strategy}.{count}", "count", better)
        for strategy in REPAIR_STRATEGIES
        for count, better in (("attempts", "lower"), ("successes", "higher"))
    ),
    ("repair.rounds_per_heal", "count", "lower"),
    # live healing, observed from outside the service
    ("faults.injected", "count", "higher"),
    ("faults.heal_p50_ms", "ms", "lower"),
    ("faults.heal_p90_ms", "ms", "lower"),
    ("faults.heal_exact_frac", "ratio", "higher"),
    # experiments
    ("campaign.trial_p50_ms.rber", "ms", "lower"),
    ("campaign.trial_p50_ms.whole_weight", "ms", "lower"),
    ("campaign.trial_p50_ms.whole_layer", "ms", "lower"),
    ("campaign.faulted_trials", "count", "higher"),
    ("campaign.bit_exact_trials", "count", "higher"),
    # obs
    ("obs.trace_overhead_frac.latency_p50", "ratio", "lower"),
    ("obs.trace_overhead_frac.throughput", "ratio", "lower"),
    ("obs.stage_sum_error_frac", "ratio", "lower"),
)


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: Human-readable lines printed before the result line (extra named
    #: figures, sample counts, correctness findings).
    notes: list[str] = field(default_factory=list)
    #: Span recorder of a traced run (written out when the run ends).
    recorder: Optional[object] = None


def _table(trace: bool) -> tuple[tuple[str, str, str], ...]:
    return PER_LAYER if trace else END_TO_END


def result_line(outcome: Outcome, trace: bool) -> dict:
    """The JSON object printed as the run's last line of output."""
    metrics = {}
    for name, unit, _better in _table(trace):
        if name in outcome.metrics:
            value = outcome.metrics[name]
        elif trace:
            value = 0.0  # the layer is idle on this workload
        else:
            raise KeyError(f"workload did not measure end-to-end metric {name!r}")
        metrics[name] = {"value": float(value), "unit": unit}
    return {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }


def report_lines(workload: str, outcome: Outcome, trace: bool) -> list[str]:
    """One ``workload metric = value unit`` line per table metric."""
    lines = list(outcome.notes)
    for name, unit, _better in _table(trace):
        value = outcome.metrics.get(name, 0.0)
        lines.append(f"{workload} {name} = {value:.6g} {unit}")
    return lines
