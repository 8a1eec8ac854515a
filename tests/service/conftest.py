"""Shared fixtures for the service-runtime tests."""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.nn import Sequential
from repro.service import SelfHealingService, ServiceConfig


@contextmanager
def _record_fused_serves():
    """Collect the certificate of every ``"fused"`` serve while active.

    Wraps :meth:`Sequential.predict_served` (every engine batch and plan
    warm-up goes through it) and yields the list it appends to, so a soak
    can assert that each fused serve carried a passing certificate.
    """
    served = Sequential.predict_served
    certificates: list = []

    def recording(model, *args, **kwargs):
        outputs, info = served(model, *args, **kwargs)
        if info["mode"] == "fused":
            certificates.append(info["certificate"])
        return outputs, info

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Sequential, "predict_served", recording)
        yield certificates


@pytest.fixture(scope="session")
def record_fused_serves():
    """Context-manager factory around :func:`_record_fused_serves`."""
    return _record_fused_serves


@pytest.fixture
def sync_service():
    """A service with synchronous (inline) recovery and a tiny conv model.

    ``recovery_async=False`` makes ``scrub_now`` run detection *and* recovery
    before returning, which keeps the unit tests deterministic.
    """
    service = SelfHealingService(
        ServiceConfig(recovery_async=False, scrub_period_seconds=0.05)
    )
    entry = service.load_model("mnist_reduced")
    return service, entry


@pytest.fixture
def golden_weights(sync_service):
    """Golden weight snapshot of every parameterized layer."""
    _, entry = sync_service
    return {
        index: entry.model.layers[index].get_weights()
        for index in entry.parameterized_indices
    }
