"""Self-healing inference service runtime (the paper's Sec. V-E made live).

This package turns the one-shot ``MILRProtector.detect()/recover()`` API into
an *online* system: protected models keep serving batched inference while a
background scrubber periodically detects errors, quarantines corrupted
layers, and heals them -- the availability model of the paper (Fig. 12)
evaluated with measured detection/recovery times instead of assumptions.

* :mod:`repro.service.registry` -- managed models with quarantine state
* :mod:`repro.service.engine` -- batching inference engine with latency
  accounting
* :mod:`repro.service.scrubber` -- periodic sliced detection + recovery
  dispatch through the verified bit-exact repair chain of
  :mod:`repro.core.repair`
* :mod:`repro.service.sla` -- live availability / minimum-accuracy tracking
* :mod:`repro.service.pressure` -- Poisson bit-flip fault driver
* :mod:`repro.service.traffic` -- composable trace-driven traffic shapes,
  the deterministic admission simulation and the named chaos scenarios
* :mod:`repro.service.breaker` -- per-model circuit breaker (early load
  shedding under latency/fault stress)
* :mod:`repro.service.runtime` -- the :class:`SelfHealingService` facade,
  the :func:`run_soak` scenario harness and :func:`run_chaos_scenario`

Observability for the whole stack lives in :mod:`repro.obs` (re-exported
here for convenience): every component above reports into one
:class:`~repro.obs.telemetry.Telemetry` facade owned by the model registry.
"""

from repro.obs.lifecycle import FaultChainSummary
from repro.obs.telemetry import Telemetry, TelemetryConfig
from repro.service.config import ServiceConfig
from repro.service.engine import InferenceEngine, InferenceRequest
from repro.service.pressure import (
    DEFAULT_BIT_POSITIONS,
    SCRATCH_LAYER_NAME,
    FaultEvent,
    FaultPressureDriver,
)
from repro.service.registry import ManagedModel, ModelRegistry, RequestStats
from repro.service.breaker import CircuitBreaker
from repro.service.runtime import (
    ChaosRunResult,
    SelfHealingService,
    SoakResult,
    calibrate_capacity,
    run_chaos_scenario,
    run_soak,
)
from repro.service.scrubber import Scrubber
from repro.service.sla import SLAReport, SLATracker, SLOReport
from repro.service.traffic import (
    CHAOS_SCENARIOS,
    Arrival,
    BurstTraffic,
    ChaosScenario,
    ConstantTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    RampTraffic,
    ReplayTrace,
    SuperposedTraffic,
    Trace,
    TrafficShape,
    simulate_admission,
)

__all__ = [
    "ServiceConfig",
    "ModelRegistry",
    "ManagedModel",
    "RequestStats",
    "InferenceEngine",
    "InferenceRequest",
    "Scrubber",
    "SLATracker",
    "SLAReport",
    "FaultPressureDriver",
    "FaultEvent",
    "DEFAULT_BIT_POSITIONS",
    "SCRATCH_LAYER_NAME",
    "SelfHealingService",
    "SoakResult",
    "run_soak",
    "ChaosRunResult",
    "run_chaos_scenario",
    "calibrate_capacity",
    "CircuitBreaker",
    "SLOReport",
    "Arrival",
    "Trace",
    "TrafficShape",
    "ConstantTraffic",
    "PoissonTraffic",
    "DiurnalTraffic",
    "BurstTraffic",
    "RampTraffic",
    "ReplayTrace",
    "SuperposedTraffic",
    "simulate_admission",
    "ChaosScenario",
    "CHAOS_SCENARIOS",
    "Telemetry",
    "TelemetryConfig",
    "FaultChainSummary",
]
