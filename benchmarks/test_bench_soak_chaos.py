"""Chaos-soak qualities: overload protection measured and gated in CI.

Three higher-is-better ``rate`` entries land in ``BENCH_soak.json``:

* ``chaos_admitted_availability`` -- admitted-request availability of the
  ``burst-storm`` scenario (square-wave bursts to 3x measured capacity under
  mixed fault pressure).  The SLO floor the tentpole promises.
* ``chaos_shed_rate_3x_overload`` -- fraction of a sustained 3x-capacity
  constant flood shed by the bounded-queue admission controller.  Roughly
  ``1 - 1/3`` by construction; the gate's lenient baseline only catches the
  failure mode where admission control silently stops shedding (the queue
  then grows unboundedly and latency explodes instead).
* ``chaos_breaker_reaction_score`` -- ``min(1, target / reaction_seconds)``
  where ``reaction_seconds`` is the measured wall-clock delay between the
  first over-threshold latency entering the breaker window and the breaker
  shedding at admission.  A breaker that never trips scores ~0 and fails the
  gate.

``benchmarks/check_regression.py`` compares all three against the committed
baseline with its absolute ``--rate-tolerance`` drop allowance.
"""

from __future__ import annotations

import time

from benchmarks.conftest import print_header, record_bench_results
from repro.analysis.reporting import format_table
from repro.exceptions import ServiceOverloadError
from repro.service import (
    ConstantTraffic,
    SelfHealingService,
    ServiceConfig,
    calibrate_capacity,
    run_chaos_scenario,
    run_soak,
)
from repro.types import FLOAT_DTYPE

#: Wall-clock budget the breaker gets to react to sustained over-threshold
#: latency (from first bad sample to shedding at admission).
BREAKER_REACTION_TARGET_SECONDS = 1.0


def _measure_breaker_reaction() -> float:
    """Seconds from sustained over-threshold latency to admission shedding."""
    import numpy as np

    config = ServiceConfig(
        breaker_enabled=True,
        # Far below any real serve latency, so every completed request is an
        # over-threshold sample and the window trips as soon as it fills.
        breaker_p99_threshold_seconds=1e-6,
        breaker_min_samples=32,
        scrub_period_seconds=30.0,
    )
    service = SelfHealingService(config)
    entry = service.load_model("mnist_reduced")
    sample = np.zeros(entry.model.input_shape, dtype=FLOAT_DTYPE)
    service.start(scrub=False)
    try:
        began = time.perf_counter()
        deadline = began + 4 * BREAKER_REACTION_TARGET_SECONDS
        while time.perf_counter() < deadline:
            try:
                service.submit(entry.name, sample).result(timeout=10.0)
            except ServiceOverloadError:
                return time.perf_counter() - began
        return time.perf_counter() - began
    finally:
        service.stop()


def test_chaos_soak_benchmarks():
    print_header("Chaos soak: overload protection under 3x capacity")
    capacity = calibrate_capacity(samples=256, seed=0)

    storm = run_chaos_scenario(
        "burst-storm", duration_seconds=2.5, seed=0, capacity_rps=capacity
    )
    slo = storm.soak.slo
    assert slo is not None

    flood = run_soak(
        duration_seconds=2.0,
        traffic=ConstantTraffic(rate_rps=3.0 * capacity),
        mean_fault_interval_seconds=0.4,
        scrub_period_seconds=0.1,
        seed=1,
        service_config=ServiceConfig(max_queue_depth=128),
    )
    flood_total = (
        flood.requests_completed + flood.requests_failed + flood.requests_shed
    )
    shed_rate = flood.requests_shed / max(1, flood_total)

    reaction = _measure_breaker_reaction()
    reaction_score = min(1.0, BREAKER_REACTION_TARGET_SECONDS / max(reaction, 1e-9))

    rows = [
        {
            "op": "chaos_admitted_availability",
            "rate": slo.admitted_availability,
            "capacity_rps": round(capacity, 1),
            "requests_completed": storm.soak.requests_completed,
            "requests_shed": storm.soak.requests_shed,
            "shape": [],
        },
        {
            "op": "chaos_shed_rate_3x_overload",
            "rate": shed_rate,
            "requests_completed": flood.requests_completed,
            "requests_shed": flood.requests_shed,
            "shape": [],
        },
        {
            "op": "chaos_breaker_reaction_score",
            "rate": reaction_score,
            "reaction_seconds": round(reaction, 4),
            "shape": [],
        },
    ]
    print(format_table(rows, title="chaos soak qualities", precision=4))
    record_bench_results("BENCH_soak.json", rows)

    # Hard floors (the regression gate adds the cross-run drift check).
    assert storm.passed, storm.violations
    assert slo.admitted_availability >= 0.99
    assert storm.soak.converged
    assert flood.requests_shed > 0, "3x overload must shed at a bounded queue"
    assert flood.queue_depth_highwater <= 128
