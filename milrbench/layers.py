"""Timing wrappers around each layer's public entry points, and their summaries.

The traced run installs these on the program's classes and modules for the
duration of the measured window (:class:`~milrbench.spans.Patches` restores
them); the untraced run never touches the program.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

import repro.core.recovery as core_recovery
from repro.core.protector import MILRProtector
from repro.nn.model import Sequential
from repro.service import ManagedModel, Scrubber

from milrbench.metrics import SOLVE_KINDS
from milrbench.spans import Patches, Span, SpanRecorder, self_times

__all__ = ["install", "median_or_zero", "layer_metrics"]


def _detect_name(_protector, layer_indices=None) -> str:
    return "core.detect_full" if layer_indices is None else "core.detect_slice"


def _solve_name(_layer, layer_plan, *_args, **_kwargs) -> str:
    return "core.solve." + SOLVE_KINDS.get(layer_plan.kind, layer_plan.kind.lower())


def _batch_size(_model, inputs, *_args, **_kwargs) -> int:
    return len(inputs)


def _layer_set(_entry, layer_indices) -> tuple:
    # Every caller passes a list, so reading it here does not consume it.
    return tuple(sorted(set(layer_indices)))


def install(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap detection, recovery, the forward pass, scrubbing and quarantine."""
    patches.wrap(recorder, MILRProtector, "detect", _detect_name)
    patches.wrap(recorder, MILRProtector, "recover", "core.recover")
    # recovery.py imported these names; its calls resolve through its globals.
    patches.wrap(recorder, core_recovery, "solve_layer_parameters", _solve_name)
    patches.wrap(recorder, core_recovery, "invert_layer", "core.invert")
    patches.wrap(recorder, Sequential, "predict_served", "nn.forward", key=_batch_size)
    patches.wrap(recorder, Sequential, "accuracy", "nn.eval", key=_batch_size)
    patches.wrap(recorder, Scrubber, "scrub_model", "scrubber.scrub")
    patches.wrap(recorder, ManagedModel, "quarantine", "quarantine.open", key=_layer_set)
    patches.wrap(
        recorder, ManagedModel, "clear_quarantine", "quarantine.close", key=_layer_set
    )


def median_or_zero(values: Sequence[float]) -> float:
    """Median of ``values``; 0 when the layer did no such work."""
    return float(statistics.median(values)) if len(values) else 0.0


def _ms(spans: Iterable[Span]) -> list[float]:
    return [span.duration * 1e3 for span in spans]


def layer_metrics(
    recorder: SpanRecorder, window_seconds: float, skip_parents: tuple = ("fault.inject",)
) -> dict[str, float]:
    """Detection, recovery, evaluation and scrubbing figures of a traced window.

    Spans whose parent is named in ``skip_parents`` are left out: the fault
    injector verifies each flip with a one-layer detection, which is the
    benchmark's work, not the scrubber's.
    """
    spans = list(recorder.spans)
    names = {span.id: span.name for span in spans}
    own = self_times(spans)

    def pick(name: str) -> list[Span]:
        return [s for s in spans if s.name == name and names.get(s.parent) not in skip_parents]

    full = pick("core.detect_full")
    slices = pick("core.detect_slice")
    recover = pick("core.recover")
    scrub = pick("scrubber.scrub")
    evals = pick("nn.eval")
    metrics = {
        "core.detect_full_ms": median_or_zero(_ms(full)),
        "core.detect_slice_ms": median_or_zero(_ms(slices)),
        "core.detect_busy_frac": sum(s.duration for s in full + slices) / window_seconds,
        "core.recover_ms": median_or_zero(_ms(recover)),
        "core.recover_self_ms": median_or_zero([own[s.id] * 1e3 for s in recover]),
        "core.invert_ms": median_or_zero(_ms(pick("core.invert"))),
        "scrubber.scrub_ms": median_or_zero(_ms(scrub)),
        "scrubber.scrub_self_ms": median_or_zero([own[s.id] * 1e3 for s in scrub]),
    }
    for kind in SOLVE_KINDS.values():
        metrics[f"core.solve_ms.{kind}"] = median_or_zero(_ms(pick(f"core.solve.{kind}")))
    samples = sum(int(s.key) for s in evals)
    if samples:
        metrics["nn.eval_us_per_sample"] = sum(s.duration for s in evals) / samples * 1e6
    return metrics
