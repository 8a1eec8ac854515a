"""Campaign workload: a fixed MILR fault-injection grid run serially in-process.

This is what every reproduced figure runs (Figs 5-11, Tables IV/VI/VIII).
The engine and the scrubber stay idle, so it is the null workload for
serving optimisations.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

from repro.experiments.campaign import (
    TIMING_RESULT_FIELDS,
    CampaignSpec,
    execute_trial,
    expand_campaign,
)

from milrbench import layers
from milrbench.metrics import Outcome
from milrbench.spans import Patches, SpanRecorder
from milrbench.stats import percentile

__all__ = ["run_campaign", "campaign_spec"]

#: Together these cover the conv, dense, bias, BatchNorm and depthwise handlers.
NETWORKS = ("mnist_reduced", "cifar_reduced", "cifar_depthwise")
FAULT_MODES = ("rber", "whole_weight", "whole_layer")
ERROR_RATES = (1e-4, 1e-3)
REPETITIONS = 3
#: Training budget per network: a 100-sample held-out set and baseline
#: accuracies of about 0.5-0.8 for about 6 s of training over all three
#: networks (the library default of 60 x 6 takes 8-19 s per network).
TRAIN_SAMPLES_PER_CLASS = 40
TRAIN_EPOCHS = 1
#: A faulted trial counts as recovered at this normalized accuracy.
RECOVERED_ACCURACY = 0.99
#: ``latency_p50_ms`` is the median whole-layer trial: 66 of those 72 trials
#: cluster at 15-40 ms, while the median of all trials sits on the steep edge
#: between that cluster and the rate trials and moved 15% with the seed.
P50_MODE = "whole_layer"
#: Trial-time tail percentile over all trials (the recovery-bound rate
#: trials); the grid has too few trials for p99.
TAIL_Q = 75.0
SETUP_REPEATS = 3


def campaign_spec(seed: int) -> CampaignSpec:
    return CampaignSpec(
        name="milrbench",
        networks=NETWORKS,
        error_rates=ERROR_RATES,
        fault_modes=FAULT_MODES,
        schemes=("milr",),
        repetitions=REPETITIONS,
        seed=seed,
        train_samples_per_class=TRAIN_SAMPLES_PER_CLASS,
        train_epochs=TRAIN_EPOCHS,
    )


def _setup(spec: CampaignSpec, workdir: Path, attempt: int):
    """Train every network into a fresh cache and build its trial context.

    One whole-layer trial per network builds the context (trained network,
    initialized protector, clean snapshot); it is part of set-up, not of
    the measured grid.
    """
    began = time.perf_counter()
    os.environ["MILR_CACHE_DIR"] = str(workdir / f"models-{attempt}")
    trials = expand_campaign(spec)
    cache: dict = {}
    for network in NETWORKS:
        first = next(t for t in trials if t.network == network and t.fault_mode == "whole_layer")
        execute_trial(first, cache=cache)
    return trials, cache, time.perf_counter() - began


def _stable_fields(result: dict) -> dict:
    return {k: v for k, v in result.items() if k not in TIMING_RESULT_FIELDS}


def _run_grid(trials, cache, seconds: float, recorder=None):
    """Whole passes over the grid until ``seconds`` have elapsed."""
    records = []
    began = time.perf_counter()
    while True:
        for trial in trials:
            started = time.perf_counter()
            if recorder is None:
                result = execute_trial(trial, cache=cache)
            else:
                result = recorder.wrap(f"campaign.trial.{trial.fault_mode}", execute_trial)(
                    trial, cache=cache
                )
            records.append((trial, time.perf_counter() - started, result))
        if time.perf_counter() - began >= seconds:
            break
    return records, time.perf_counter() - began


def _check(records) -> list[str]:
    """Repeated trials must agree; whole-layer corruption must be detected."""
    problems = []
    first: dict = {}
    for trial, _seconds, result in records:
        stable = _stable_fields(result)
        if first.setdefault(trial.key, stable) != stable:
            problems.append(f"trial {trial.trial_index} gave a different result on a repeat")
        if trial.fault_mode == "whole_layer" and result["faulted"] and not result["detected"]:
            problems.append(f"whole-layer trial {trial.trial_index} went undetected")
    return problems


def run_campaign(seed: int, seconds: float, trace: bool, workdir: Path) -> Outcome:
    spec = campaign_spec(seed)
    setups = [_setup(spec, workdir, attempt) for attempt in range(SETUP_REPEATS)]
    trials, cache, _ = setups[-1]
    setup_s = statistics.median(seconds_ for _t, _c, seconds_ in setups)
    del setups
    records, elapsed = _run_grid(trials, cache, seconds)
    metrics: dict[str, float] = {}
    recorder = SpanRecorder() if trace else None
    if trace:
        base_p50 = percentile([s for _t, s, _r in records], 50)
        base_rate = len(records) / elapsed
        untraced = records
        with Patches() as patches:
            layers.install(patches, recorder)
            records, elapsed = _run_grid(trials, cache, seconds, recorder)
        metrics.update(layers.layer_metrics(recorder, elapsed))
        metrics["obs.trace_overhead_frac.latency_p50"] = (
            percentile([s for _t, s, _r in records], 50) / base_p50 - 1.0
        )
        metrics["obs.trace_overhead_frac.throughput"] = 1.0 - (len(records) / elapsed) / base_rate
    durations = [seconds_ for _t, seconds_, _r in records]
    for mode in FAULT_MODES:
        metrics[f"campaign.trial_p50_ms.{mode}"] = (
            percentile([s for t, s, _r in records if t.fault_mode == mode], 50) * 1e3
        )
    faulted = [r for _t, _s, r in records if r["faulted"]]
    recovered = sum(1 for r in faulted if r["normalized_accuracy"] >= RECOVERED_ACCURACY)
    bit_exact = sum(1 for r in faulted if r["bit_exact"])
    metrics.update(
        {
            "campaign.faulted_trials": len(faulted),
            "campaign.bit_exact_trials": bit_exact,
            "setup_s": setup_s,
            "latency_p50_ms": metrics[f"campaign.trial_p50_ms.{P50_MODE}"],
            "latency_tail_ms": percentile(durations, TAIL_Q) * 1e3,
            "throughput_per_s": len(records) / elapsed,
            "slo_met_frac": recovered / len(faulted) if faulted else 0.0,
        }
    )
    problems = _check(records if not trace else untraced + records)
    notes = [
        f"campaign grid: {len(trials)} trials per pass ({', '.join(NETWORKS)}; "
        f"{', '.join(FAULT_MODES)}; rates {ERROR_RATES}; milr x{REPETITIONS}), "
        f"{len(records)} executed in {elapsed:.3f} s",
        f"campaign trials_per_s = {metrics['throughput_per_s']:.6g} trials/s",
        f"campaign recovered_frac = {metrics['slo_met_frac']:.6g} ratio "
        f"({recovered} of {len(faulted)} faulted trials at normalized accuracy "
        f">= {RECOVERED_ACCURACY})",
        f"campaign bit_exact = {bit_exact} of {len(faulted)} faulted trials",
        f"campaign latency_p50_ms is the median {P50_MODE} trial time; latency_tail_ms "
        f"is p{TAIL_Q:g} of all {len(durations)} trial times",
    ]
    notes += [f"campaign FAILED: {problem}" for problem in problems]
    return Outcome(
        correct=not problems,
        attempted=len(records),
        failed=0,
        metrics=metrics,
        notes=notes,
        recorder=recorder,
    )
