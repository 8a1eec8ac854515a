"""Background detection scrubber and recovery dispatcher.

The scrubber periodically sweeps every registered model with MILR detection,
sliced into small chunks of layers so the model lock is only held for
sub-millisecond stretches and inference interleaves freely.  Layers with
detected errors are quarantined (pausing that model's serving) and handed to
a recovery worker, which re-runs detection on the quarantined subset for
fresh CRC suspect masks, runs the MILR solvers, and then attempts the
verified bit-exact repair (:mod:`repro.core.repair`).  Other models keep
serving throughout.

Detection slice durations and recovery durations are recorded in each model's
:class:`~repro.service.sla.SLATracker`, which is how the live availability
model gets its measured ``Td`` and ``Tr``.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace as dataclass_replace
from typing import Optional

import numpy as np

from repro.core.checkpoint import weight_fingerprint
from repro.core.handlers import handler_for
from repro.core.repair import (
    RepairOutcome,
    estimate_guided_repair,
    refine_recovered_weights,
)
from repro.memory.bitops import bits_to_floats, floats_to_bits
from repro.service.config import ServiceConfig
from repro.service.registry import ManagedModel, ModelRegistry

__all__ = ["Scrubber"]

_STOP = object()

#: Parameterized layers checked per detection slice.  Small chunks hold the
#: model lock for short stretches, letting inference interleave with scrubbing.
SCRUB_CHUNK_LAYERS = 4

#: Repair rounds within one recovery job, and recovery jobs a layer may fail
#: verification in before it is released from quarantine in *degraded* state
#: (best-effort weights, counted in the SLA report), so one unhealable layer
#: cannot pin availability to zero.
MAX_RECOVERY_ATTEMPTS = 3

#: Bit-exact repairs of the *same memory cell* (word index, bit position) of
#: a layer after which the cell is blacklisted as stuck-at hardware: its
#: golden word is remembered and rewritten by a cheap remap pass at the start
#: of every scrub, without waiting for full detection to flag the layer again.
REPEAT_OFFENDER_THRESHOLD = 2


class Scrubber:
    """Periodic detection sweeps + quarantine + recovery dispatch."""

    def __init__(self, registry: ModelRegistry, config: Optional[ServiceConfig] = None):
        self._registry = registry
        self._config = config or registry.config
        self._telemetry = registry.telemetry
        self._stop_event = threading.Event()
        self._scrub_thread: Optional[threading.Thread] = None
        self._recovery_thread: Optional[threading.Thread] = None
        self._recovery_queue: "queue.Queue" = queue.Queue()
        self._running = False
        #: Most recent exception swallowed by a background loop (the threads
        #: must outlive individual failures -- a dead scrubber would leave
        #: quarantined models stuck forever with nothing surfaced).
        self.last_error: Optional[BaseException] = None

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._stop_event.clear()
        if self._config.recovery_async:
            self._recovery_thread = threading.Thread(
                target=self._recovery_loop, name="scrub-recovery", daemon=True
            )
            self._recovery_thread.start()
        self._scrub_thread = threading.Thread(
            target=self._scrub_loop, name="scrubber", daemon=True
        )
        self._scrub_thread.start()

    def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        self._stop_event.set()
        if self._scrub_thread is not None:
            self._scrub_thread.join(timeout=30.0)
            self._scrub_thread = None
        if self._recovery_thread is not None:
            self._recovery_queue.put(_STOP)
            self._recovery_thread.join(timeout=60.0)
            self._recovery_thread = None

    # ------------------------------------------------------------------ #
    def _scrub_loop(self) -> None:
        while not self._stop_event.wait(self._config.scrub_period_seconds):
            try:
                self.scrub_all()
            except Exception as error:  # noqa: BLE001 - loop must survive
                self.last_error = error

    def _recovery_loop(self) -> None:
        while True:
            job = self._recovery_queue.get()
            if job is _STOP:
                return
            entry, indices = job
            try:
                self._recover(entry, indices)
            except Exception as error:  # noqa: BLE001 - loop must survive
                self.last_error = error

    # ------------------------------------------------------------------ #
    def scrub_all(self) -> None:
        """One full detection sweep over every registered model."""
        for entry in self._registry:
            self.scrub_model(entry)

    def scrub_model(self, entry: ManagedModel) -> None:
        """One full (but sliced) detection pass over one model.

        Layers already quarantined are skipped -- their recovery is pending --
        but quarantined layers without a dispatched recovery job (a previous
        recovery attempt that did not fully converge) are re-dispatched.
        """
        self._remap_pass(entry)
        telemetry = self._telemetry
        chunk_size = SCRUB_CHUNK_LAYERS
        with entry.lock:
            skip = entry.quarantined
            targets = [i for i in entry.parameterized_indices if i not in skip]
            # Sweep every cached plan's scratch borders, not just the plans
            # the serve path happens to execute: with fused serving on, the
            # bit-exact plans (and fused plans for cold batch sizes) would
            # otherwise carry dirt until their next -- possibly never --
            # serve.  O(border) per buffer, so this costs microseconds.
            entry.model.verify_cached_scratch()
        total_seconds = 0.0
        flagged: list[int] = []
        for start in range(0, len(targets), chunk_size):
            chunk = targets[start : start + chunk_size]
            # The span times the slice even with telemetry disabled, so the
            # SLA tracker consumes span durations in both modes.
            with telemetry.tracer.span(
                "scrub.detect_slice",
                attrs={"model": entry.name, "layers": len(chunk)},
            ) as span:
                with entry.lock:
                    report = entry.protector.detect(layer_indices=chunk)
                    bad = [
                        index
                        for index in report.erroneous_layers
                        if not self._accepted_degraded(entry, index)
                    ]
                    # Quarantine under the same lock hold as the detection
                    # that flagged the layers -- releasing in between would
                    # let a waiting batch execute through the just-detected
                    # corruption.
                    if bad:
                        flagged.extend(bad)
                        detected_at = time.perf_counter()
                        for index in bad:
                            telemetry.fault_detected(
                                entry.name, index, span.start, detected_at
                            )
                        entry.quarantine(bad)
            total_seconds += span.duration
        entry.tracker.record_detection(total_seconds)
        if telemetry.enabled:
            telemetry.metrics.histogram(
                "repro_scrub_detection_seconds",
                buckets=telemetry.config.latency_buckets,
                model=entry.name,
            ).observe(total_seconds)
        if flagged:
            entry.tracker.record_errors_detected(len(flagged))
        with entry.lock:
            pending = entry.quarantined - entry.dispatched
            if pending:
                entry.dispatched.update(pending)
        if pending:
            self.dispatch_recovery(entry, sorted(pending))

    def _remap_pass(self, entry: ManagedModel) -> None:
        """Rewrite blacklisted stuck-at cells with their golden words.

        Cells promoted by :meth:`_note_repeat_offenders` re-corrupt after
        every repair; instead of paying a full detect/quarantine/recover cycle
        each time, this pass checks just the blacklisted words against their
        remembered golden values and rewrites dirty ones directly -- the
        software equivalent of remapping a bad DRAM row.  Rewrites are
        counted as detections/recoveries in the SLA tracker (they are real
        error events the service healed), and the brief quarantine around the
        write keeps the no-serve-through-corruption invariant.
        """
        with entry.lock:
            layers = {
                index: dict(cells)
                for index, cells in entry.blacklisted_cells.items()
                if cells
            }
        if not layers:
            return
        telemetry = self._telemetry
        healed_layers = 0
        with telemetry.tracer.span(
            "scrub.remap", attrs={"model": entry.name}
        ) as remap_span:
            for index, cells in sorted(layers.items()):
                with entry.lock:
                    if index in entry.quarantined:
                        continue  # full recovery already owns this layer
                    layer = entry.model.layers[index]
                    weights = layer.get_weights()
                    bits = floats_to_bits(weights).ravel()
                    dirty = [
                        word for word, golden in cells.items() if int(bits[word]) != golden
                    ]
                    if not dirty:
                        continue
                    found_at = time.perf_counter()
                    telemetry.fault_detected(entry.name, index, found_at, found_at)
                    entry.quarantine([index])
                    for word in dirty:
                        bits[word] = np.uint32(cells[word])
                    layer.set_weights(bits_to_floats(bits).reshape(weights.shape))
                    entry.remap_repairs += len(dirty)
                    entry.clear_quarantine([index])
                    healed_at = time.perf_counter()
                    telemetry.strategy_attempted("remap", True)
                    telemetry.repair_attempt(
                        entry.name, index, found_at, healed_at,
                        strategy="remap", round_number=1, bit_exact=True,
                    )
                    telemetry.fault_verified(
                        entry.name, index, healed_at, healed_at, bit_exact=True
                    )
                    if telemetry.enabled:
                        telemetry.metrics.counter(
                            "repro_scrub_remap_repairs_total", model=entry.name
                        ).inc(len(dirty))
                    healed_layers += 1
        if healed_layers:
            entry.tracker.record_errors_detected(healed_layers)
            entry.tracker.record_recovery(
                remap_span.duration, healed_layers, healed_layers
            )

    def _note_repeat_offenders(
        self, entry: ManagedModel, index: int, corrupted: np.ndarray
    ) -> None:
        """Track which cells a bit-exact repair corrected; blacklist repeats.

        Called right after layer ``index`` healed bit-exactly (caller holds
        the lock, so the live words *are* the golden words).  Diffing them
        against the corrupted snapshot yields exactly the cells this repair
        fixed; a cell corrected ``REPEAT_OFFENDER_THRESHOLD`` times is
        stuck-at hardware, not random noise, and gets remapped.
        """
        healed_bits = floats_to_bits(entry.model.layers[index].get_weights()).ravel()
        diff = healed_bits ^ floats_to_bits(corrupted).ravel()
        entry.repair_counts[index] = entry.repair_counts.get(index, 0) + 1
        offenders = entry.offender_counts.setdefault(index, {})
        blacklist = entry.blacklisted_cells.setdefault(index, {})
        for word in np.flatnonzero(diff):
            word = int(word)
            mask = int(diff[word])
            for bit in range(32):
                if not mask & (1 << bit):
                    continue
                cell = (word, bit)
                offenders[cell] = offenders.get(cell, 0) + 1
                if offenders[cell] >= REPEAT_OFFENDER_THRESHOLD:
                    blacklist[word] = int(healed_bits[word])

    def dispatch_recovery(self, entry: ManagedModel, indices: list[int]) -> None:
        """Queue (or run inline) a recovery job for quarantined layers."""
        if self._config.recovery_async and self._running:
            self._recovery_queue.put((entry, indices))
        else:
            self._recover(entry, indices)

    # ------------------------------------------------------------------ #
    def _accepted_degraded(self, entry: ManagedModel, index: int) -> bool:
        """Whether ``index`` is a degraded layer whose state is unchanged.

        Degraded layers (best-effort weights that recovery could not verify)
        keep failing detection by construction; they are only re-opened when a
        *new* fault changes their weight fingerprint.  Caller holds the lock.
        """
        accepted = entry.degraded.get(index)
        if accepted is None:
            return False
        current = weight_fingerprint(entry.model.layers[index].get_weights())
        if current == accepted:
            return True
        del entry.degraded[index]
        return False

    def reopen_degraded(self, entry: ManagedModel) -> list[int]:
        """Re-open every degraded layer for another recovery attempt.

        The stored bits each layer had before its failed recovery are restored
        (they are what bit-exact repair needs), the degraded acceptance is
        dropped and the attempt counters reset; the next scrub pass re-detects
        and re-dispatches them.  Used after fault pressure subsides, when
        repairs that failed mid-storm (e.g. through a then-corrupted
        neighbour) can succeed.
        """
        with entry.lock:
            reopened = sorted(entry.degraded)
            for index in reopened:
                original = entry.degraded_originals.pop(index, None)
                if original is not None:
                    entry.model.layers[index].set_weights(original)
                del entry.degraded[index]
                entry.recovery_attempts.pop(index, None)
            # The restored bits are known-corrupted: quarantine immediately
            # (same lock hold) so no batch is served through them while the
            # next scrub/recovery cycle re-detects and heals.
            entry.quarantine(reopened)
        return reopened

    @staticmethod
    def _repair_order(entry: ManagedModel):
        """Repair-order key: self-contained layers heal first.

        Each layer's protection handler declares a ``repair_rank``: rank 0
        repairs from the layer's own stored protection data (bias, batch
        norm), rank 1 from a stored dummy system (dense), rank 2 by
        travelling golden activations through neighbouring layers
        (convolutions), which go last, once those neighbours are (likely)
        healthy.
        """

        def key(index: int) -> tuple[int, int]:
            layer = entry.model.layers[index]
            return (handler_for(layer, index).repair_rank, index)

        return key

    def _repair_layer(
        self, entry: ManagedModel, index: int, corrupted: np.ndarray
    ) -> RepairOutcome:
        """Heal one flagged layer and attempt verified bit-exact restoration.

        ``corrupted`` is the layer's stored bit pattern as first seen by this
        recovery job -- the reference both for the sparse solve and for the
        bit-flip snap, even on later repair rounds.  The repair chain runs
        through the layer's protection handler: first the self-contained
        bit-exact repair from stored protection data alone (bias-sum search,
        CRC-guided correction), then the residual-guided sparse estimate
        (isolates the few corrupted coordinates, on golden checkpoint passes
        for convolutions and on the stored dummy system for dense layers),
        and finally the plain MILR solver with snap refinement, which
        upgrades the estimate to bit-exact when the golden fingerprint
        confirms.  A step that does not end bit-exact falls through to the
        next.  Caller holds the model lock.
        """
        telemetry = self._telemetry
        store = entry.protector.store
        assert store is not None
        layer = entry.model.layers[index]
        layer_plan = entry.protector.plan.plan_for(index)
        handler = handler_for(layer, index)
        fingerprint = store.golden_fingerprint_for(index)
        repaired = handler.checkpoint_free_repair(
            layer,
            layer_plan,
            corrupted,
            fingerprint,
            store,
            entry.protector.config,
        )
        telemetry.strategy_attempted("checkpoint_free", repaired is not None)
        if repaired is not None:
            layer.set_weights(repaired)
            snapped = int(np.sum(repaired.view(np.uint32) != corrupted.view(np.uint32)))
            return RepairOutcome(
                bit_exact=True,
                snapped_weights=snapped,
                kept_weights=corrupted.size - snapped,
                strategy="checkpoint_free",
            )
        estimate = handler.residual_repair_estimate(
            layer, layer_plan, corrupted, entry.protector.recovery_engine
        )
        if estimate is not None:
            layer.set_weights(estimate)
            outcome = refine_recovered_weights(layer, corrupted, fingerprint)
            telemetry.strategy_attempted("residual_estimate", outcome.bit_exact)
            if outcome.bit_exact:
                return dataclass_replace(outcome, strategy="residual_estimate")
        # Solver path: start from the stored bits so CRC localization (and the
        # restricted solves it feeds) sees the actual corruption pattern.
        layer.set_weights(corrupted)
        report = entry.protector.detect(layer_indices=[index])
        if report.erroneous_layers:
            entry.protector.recover(report)
        outcome = refine_recovered_weights(layer, corrupted, fingerprint)
        telemetry.strategy_attempted("solver_snap", outcome.bit_exact)
        if outcome.bit_exact:
            return dataclass_replace(outcome, strategy="solver_snap")
        # Last resort: the solver estimate may be unbiased but noisier than
        # the snap tolerances (e.g. a bias recovered through a dense-layer
        # inversion); retry with the noise-adaptive fingerprint search.
        repaired = estimate_guided_repair(corrupted, layer.get_weights(), fingerprint)
        telemetry.strategy_attempted("estimate_guided", repaired is not None)
        if repaired is not None:
            layer.set_weights(repaired)
            return RepairOutcome(
                bit_exact=True,
                snapped_weights=outcome.snapped_weights,
                kept_weights=outcome.kept_weights,
                strategy="estimate_guided",
            )
        return dataclass_replace(outcome, strategy="solver_snap")

    def _recover(self, entry: ManagedModel, indices: list[int]) -> None:
        """Recover quarantined layers, then try the verified bit-exact repair.

        Repairs run in layer order and are iterated for up to
        ``MAX_RECOVERY_ATTEMPTS`` rounds within the job (lock held, so no new
        faults interleave): a layer whose golden input/output passes travelled
        through a still-corrupted neighbour in round one heals in round two,
        after the neighbour's functional repair.  Layers still failing
        verification at the end get their stored bits restored (so the
        information needed for a future bit-exact repair is never destroyed)
        and either stay quarantined for another job or -- once the cross-job
        attempt budget is spent -- are released in degraded state, keeping the
        best functional estimate while the original bits are stashed for
        :meth:`reopen_degraded`.
        """
        telemetry = self._telemetry
        attempted_layers = 0
        healed_layers = 0
        bit_exact_layers = 0
        degraded_layers = 0
        # The span times the job even with telemetry disabled, so the SLA
        # tracker consumes the span duration in both modes.
        with telemetry.tracer.span(
            "scrub.recover", attrs={"model": entry.name, "layers": len(indices)}
        ) as recover_span:
            try:
                with entry.lock:
                    # Fresh detection over just the quarantined subset: weights
                    # may have degraded further since the scrub pass, and
                    # conv-partial layers need an up-to-date CRC suspect mask.
                    report = entry.protector.detect(layer_indices=indices)
                    flagged = report.erroneous_layers
                    cleared = [i for i in indices if i not in flagged]
                    originals = {
                        i: entry.model.layers[i].get_weights() for i in flagged
                    }
                    outcomes: dict[int, RepairOutcome] = {}
                    still_bad = set(flagged)
                    verify_began = verify_ended = recover_span.start
                    for round_number in range(1, MAX_RECOVERY_ATTEMPTS + 1):
                        if not still_bad:
                            break
                        for index in sorted(still_bad, key=self._repair_order(entry)):
                            repair_began = time.perf_counter()
                            outcomes[index] = self._repair_layer(
                                entry, index, originals[index]
                            )
                            telemetry.repair_attempt(
                                entry.name,
                                index,
                                repair_began,
                                time.perf_counter(),
                                strategy=outcomes[index].strategy,
                                round_number=round_number,
                                bit_exact=outcomes[index].bit_exact,
                            )
                        verify_began = time.perf_counter()
                        verify = entry.protector.detect(layer_indices=flagged)
                        still_bad = set(verify.erroneous_layers)
                        verify_ended = time.perf_counter()
                    attempted_layers = len(flagged)
                    degraded_indices: list[int] = []
                    for index in flagged:
                        if index not in still_bad:
                            cleared.append(index)
                            healed_layers += 1
                            entry.recovery_attempts.pop(index, None)
                            entry.degraded.pop(index, None)
                            entry.degraded_originals.pop(index, None)
                            if outcomes[index].bit_exact:
                                bit_exact_layers += 1
                                self._note_repeat_offenders(
                                    entry, index, originals[index]
                                )
                            continue
                        attempts = entry.recovery_attempts.get(index, 0) + 1
                        entry.recovery_attempts[index] = attempts
                        if attempts >= MAX_RECOVERY_ATTEMPTS:
                            # Degrade: serve the best functional estimate, stash
                            # the stored bits for a later re-opened repair.
                            entry.degraded[index] = weight_fingerprint(
                                entry.model.layers[index].get_weights()
                            )
                            entry.degraded_originals[index] = originals[index]
                            entry.recovery_attempts.pop(index, None)
                            cleared.append(index)
                            degraded_layers += 1
                            degraded_indices.append(index)
                        else:
                            entry.model.layers[index].set_weights(originals[index])
                    entry.clear_quarantine(cleared)
                    # Lifecycle closure runs after clear_quarantine so every
                    # chain records its full quarantine window before the
                    # verify stage closes it (on_verify pops the open chain).
                    for index in flagged:
                        if index not in still_bad:
                            telemetry.fault_verified(
                                entry.name,
                                index,
                                verify_began,
                                verify_ended,
                                outcomes[index].bit_exact,
                            )
                    for index in sorted(set(indices) - set(flagged)):
                        # Flagged by the scrub pass but clean on fresh
                        # detection: nothing was repaired, the passing detect
                        # is the verification.
                        telemetry.fault_verified(
                            entry.name,
                            index,
                            recover_span.start,
                            verify_ended,
                            bit_exact=False,
                        )
                    for index in degraded_indices:
                        telemetry.fault_degraded(
                            entry.name, index, time.perf_counter()
                        )
            finally:
                with entry.lock:
                    entry.dispatched.difference_update(indices)
                # Provisional end stamp: the span context manager overwrites it
                # microseconds later with (essentially) the same value.
                recover_span.end = time.perf_counter()
                if attempted_layers:
                    # The duration sample covers the whole attempt (that is the
                    # maintenance time Tr measures); the layer count reports
                    # only layers that actually passed verification.
                    entry.tracker.record_recovery(
                        recover_span.duration, healed_layers, bit_exact_layers
                    )
                if degraded_layers:
                    entry.tracker.record_degraded(degraded_layers)
