"""Command-line interface for running the MILR experiments.

Installed as ``python -m repro.cli`` (or imported and called with an argument
list, which is how the tests drive it).  Each sub-command regenerates one of
the paper's artifacts and prints a plain-text table:

* ``storage``        — Tables V / VII / IX (paper-exact networks)
* ``rber``           — Figures 5 / 7 / 9 (reduced networks)
* ``whole-weight``   — Figures 6 / 8 / 10 (reduced networks)
* ``whole-layer``    — Tables IV / VI / VIII (reduced networks)
* ``timing``         — Table X
* ``recovery-time``  — Figure 11
* ``availability``   — Figure 12
* ``summary``        — architecture tables (Tables I–III)

Two commands run the *online* self-healing service instead of an offline
experiment:

* ``serve``          — serve synthetic traffic with the background scrubber on
  and report throughput/latency plus the live SLA figures
* ``soak``           — the fault-pressure scenario (Fig. 12's live
  counterpart): Poisson bit flips against live weights under continuous
  inference, with detection/recovery/bit-exactness and availability reported
* ``chaos``          — run a named production-shape chaos scenario
  (trace-driven overload + fault pressure) and exit nonzero on SLO violation
* ``telemetry``      — pretty-print the latest metrics snapshot from a soak
  started with ``--metrics-out`` (works while the soak is still running)

``campaign`` drives the sharded, resumable evaluation-campaign runner:

* ``campaign run``    — expand a grid (networks × fault modes × points ×
  schemes × repetitions) and execute the missing trials across worker
  processes, streaming results into an append-only JSONL store; ``--shard
  k/n`` runs one grid slice for multi-machine fan-out
* ``campaign status`` — completed/pending trial counts for a grid vs a store
* ``campaign report`` — fold a store into per-cell summary tables
* ``campaign merge``  — union shard stores into one (content-keyed, torn
  lines reconciled) and print the deterministic store digest
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.reporting import format_campaign_report, format_storage_table, format_table
from repro.experiments import (
    CampaignSpec,
    ExperimentSetting,
    ProtectionScheme,
    campaign_status,
    open_store,
    run_campaign,
    run_rber_sweep,
    run_whole_weight_sweep,
)
from repro.experiments.campaign import FAULT_MODES
from repro.experiments.availability_tradeoff import availability_tradeoff_curves
from repro.memory.fault_models import fault_model_names
from repro.experiments.storage import storage_overhead_table
from repro.experiments.timing import (
    measure_prediction_and_identification,
    recovery_time_curve,
)
from repro.experiments.whole_layer import run_whole_layer_experiment
from repro.zoo import network_table, paper_layer_table

__all__ = ["build_parser", "main"]

_PAPER_NETWORKS = ("mnist", "cifar_small", "cifar_large")
_REDUCED_NETWORKS = ("mnist_reduced", "cifar_reduced", "cifar_reduced_large")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MILR (DSN 2021) reproduction experiments"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    summary = subparsers.add_parser("summary", help="print an architecture table (Tables I-III)")
    summary.add_argument("--network", default="mnist", choices=sorted(network_table()))

    storage = subparsers.add_parser("storage", help="storage overheads (Tables V/VII/IX)")
    storage.add_argument(
        "--networks", nargs="+", default=list(_PAPER_NETWORKS), choices=sorted(network_table())
    )

    def add_sweep_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--network", default="mnist_reduced", choices=sorted(network_table()))
        sub.add_argument("--trials", type=int, default=3)
        sub.add_argument(
            "--error-rates",
            type=float,
            nargs="+",
            default=[1e-6, 1e-5, 1e-4, 1e-3],
        )
        sub.add_argument("--seed", type=int, default=0)

    rber = subparsers.add_parser("rber", help="RBER sweep (Figures 5/7/9)")
    add_sweep_arguments(rber)

    whole_weight = subparsers.add_parser(
        "whole-weight", help="whole-weight error sweep (Figures 6/8/10)"
    )
    add_sweep_arguments(whole_weight)

    whole_layer = subparsers.add_parser(
        "whole-layer", help="whole-layer error accuracy (Tables IV/VI/VIII)"
    )
    whole_layer.add_argument(
        "--network", default="mnist_reduced", choices=sorted(network_table())
    )
    whole_layer.add_argument("--seed", type=int, default=0)

    timing = subparsers.add_parser("timing", help="prediction/identification timing (Table X)")
    timing.add_argument(
        "--networks", nargs="+", default=list(_PAPER_NETWORKS), choices=sorted(network_table())
    )
    timing.add_argument("--batch-size", type=int, default=32)

    recovery_time = subparsers.add_parser(
        "recovery-time", help="recovery time vs error count (Figure 11)"
    )
    recovery_time.add_argument(
        "--network", default="mnist_reduced", choices=sorted(network_table())
    )
    recovery_time.add_argument(
        "--error-counts", type=int, nargs="+", default=[10, 100, 500, 2000]
    )

    availability = subparsers.add_parser(
        "availability", help="availability / accuracy trade-off (Figure 12)"
    )
    availability.add_argument(
        "--networks", nargs="+", default=list(_REDUCED_NETWORKS), choices=sorted(network_table())
    )
    availability.add_argument("--points", type=int, default=25)

    def add_service_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--network", default="mnist_reduced", choices=sorted(network_table())
        )
        sub.add_argument("--duration", type=float, default=3.0, help="seconds of traffic")
        sub.add_argument(
            "--scrub-period", type=float, default=0.25, help="scrubber period (seconds)"
        )
        sub.add_argument(
            "--request-interval",
            type=float,
            default=0.002,
            help="seconds between submitted requests",
        )
        sub.add_argument(
            "--trained",
            action="store_true",
            help="serve trained weights (trains on a cold cache) instead of "
            "freshly initialized ones",
        )
        sub.add_argument("--seed", type=int, default=0)

    serve = subparsers.add_parser(
        "serve", help="serve synthetic traffic with the self-healing runtime"
    )
    add_service_arguments(serve)
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for each request's result before counting it "
        "as timed out (previously hardcoded)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=0,
        help="bound each model's request queue (0 = unbounded); a full "
        "queue sheds requests, reported separately from timeouts",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request deadline in seconds (unset = none); expired "
        "requests are dropped before compute and counted as shed",
    )

    soak = subparsers.add_parser(
        "soak", help="fault-pressure soak scenario (live Figure 12 counterpart)"
    )
    add_service_arguments(soak)
    soak.add_argument(
        "--fault-interval",
        type=float,
        default=0.2,
        help="mean seconds between Poisson bit-flip arrivals",
    )
    soak.add_argument(
        "--max-faults", type=int, default=None, help="stop after this many error events"
    )
    soak.add_argument(
        "--fault-models",
        nargs="+",
        default=None,
        choices=list(fault_model_names()),
        help="fault-model zoo workloads to mix (default: uniform bit flips)",
    )
    soak.add_argument(
        "--reassert-interval",
        type=float,
        default=0.2,
        help="seconds between persistent-fault reassertion passes",
    )
    soak.add_argument(
        "--trace-out",
        default=None,
        help="write the telemetry span trace (fault-lifecycle chains, serve "
        "batches, scrub slices) to this JSONL file when the soak ends",
    )
    soak.add_argument(
        "--metrics-out",
        default=None,
        help="append metrics snapshots to this JSONL file (~1/s while the "
        "soak runs; watch live with `repro telemetry --metrics PATH`)",
    )

    chaos = subparsers.add_parser(
        "chaos",
        help="run a named chaos scenario and gate it on its SLO "
        "(exit code 1 on violation)",
    )
    from repro.service.traffic import CHAOS_SCENARIOS

    chaos.add_argument(
        "scenario",
        choices=sorted(CHAOS_SCENARIOS),
        help="named production-shape scenario to run",
    )
    chaos.add_argument(
        "--network", default="mnist_reduced", choices=sorted(network_table())
    )
    chaos.add_argument(
        "--duration", type=float, default=4.0, help="seconds of chaos traffic"
    )
    chaos.add_argument(
        "--scrub-period", type=float, default=0.1, help="scrubber period (seconds)"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--trained",
        action="store_true",
        help="serve trained weights instead of freshly initialized ones",
    )
    chaos.add_argument(
        "--capacity",
        type=float,
        default=None,
        help="sustained capacity in requests/second (default: measured by a "
        "calibration run, so overload multiples are machine-independent)",
    )
    chaos.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result payload instead of tables",
    )
    chaos.add_argument(
        "--trace-out", default=None, help="write the telemetry span trace here"
    )
    chaos.add_argument(
        "--metrics-out", default=None, help="append metrics snapshots here"
    )

    telemetry = subparsers.add_parser(
        "telemetry",
        help="pretty-print the latest metrics snapshot from a soak's "
        "--metrics-out JSONL file",
    )
    telemetry.add_argument(
        "--metrics",
        required=True,
        help="metrics JSONL file a (possibly still running) soak is appending to",
    )
    telemetry.add_argument(
        "--raw", action="store_true", help="dump the raw snapshot JSON instead"
    )

    campaign = subparsers.add_parser(
        "campaign", help="sharded, resumable fault-injection campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_grid_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--store", required=True, help="JSONL result-store path")
        sub.add_argument("--name", default="campaign", help="campaign name (part of trial keys)")
        sub.add_argument(
            "--networks", nargs="+", default=["mnist_reduced"], choices=sorted(network_table())
        )
        sub.add_argument(
            "--fault-modes", nargs="+", default=["rber"], choices=list(FAULT_MODES)
        )
        sub.add_argument(
            "--error-rates", type=float, nargs="+", default=[1e-5, 1e-4, 1e-3]
        )
        sub.add_argument(
            "--schemes",
            nargs="+",
            default=[scheme.value for scheme in ProtectionScheme],
            choices=[scheme.value for scheme in ProtectionScheme],
        )
        sub.add_argument("--repetitions", type=int, default=3)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--train-samples-per-class", type=int, default=60)
        sub.add_argument("--train-epochs", type=int, default=6)
        sub.add_argument(
            "--recovery-error-count",
            type=int,
            default=100,
            help="errors injected by availability-mode timing trials",
        )
        sub.add_argument(
            "--fault-events",
            type=int,
            default=3,
            help="fault events injected per zoo-model trial",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="execute the grid's missing trials (resume = re-run)"
    )
    add_campaign_grid_arguments(campaign_run)
    campaign_run.add_argument(
        "--workers", type=int, default=None, help="worker processes (default: CPU count)"
    )
    campaign_run.add_argument(
        "--max-trials",
        type=int,
        default=None,
        help="stop after this many executed trials (simulates interruption)",
    )
    campaign_run.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="run only grid slice k of n (1-based), e.g. 2/4; run every "
        "slice into per-shard stores and `campaign merge` them",
    )

    campaign_status_parser = campaign_sub.add_parser(
        "status", help="completed/pending counts for a grid vs a store"
    )
    add_campaign_grid_arguments(campaign_status_parser)

    campaign_report = campaign_sub.add_parser(
        "report", help="fold a result store into per-cell summary tables"
    )
    campaign_report.add_argument("--store", required=True, help="JSONL result-store path")
    campaign_report.add_argument(
        "--no-timing",
        action="store_true",
        help="omit wall-clock columns (byte-identical for any worker count)",
    )
    campaign_report.add_argument("--confidence", type=float, default=0.95)

    campaign_merge = campaign_sub.add_parser(
        "merge", help="union shard stores into one and print its digest"
    )
    campaign_merge.add_argument(
        "sources", nargs="+", help="shard JSONL store paths to merge"
    )
    campaign_merge.add_argument(
        "--into", required=True, help="destination JSONL store path"
    )
    campaign_merge.add_argument(
        "--with-timing",
        action="store_true",
        help="include wall-clock result fields in the printed digest "
        "(default strips them, so a sharded run hashes equal to a serial one)",
    )
    return parser


def _print_summary(args: argparse.Namespace) -> None:
    model = network_table()[args.network].builder()
    rows = [
        {
            "layer": row["layer"],
            "output_shape": str(tuple(row["output_shape"])),
            "trainable": row["trainable"],
        }
        for row in paper_layer_table(model)
    ]
    print(format_table(rows, title=f"{args.network} architecture", precision=0))
    print(f"total trainable parameters: {model.parameter_count():,}")


def _print_storage(args: argparse.Namespace) -> None:
    comparisons = storage_overhead_table(tuple(args.networks))
    print(
        format_storage_table(
            [comparison.as_row() for comparison in comparisons],
            title="Storage overhead (MB): backup vs ECC vs MILR vs ECC+MILR",
        )
    )


def _sweep_rows(result, schemes) -> list[dict[str, object]]:
    rates = sorted(next(iter(result.samples.values())).keys())
    rows = []
    for rate in rates:
        row: dict[str, object] = {"error_rate": f"{rate:.0e}"}
        for scheme in schemes:
            row[scheme.value] = result.summary(scheme)[rate].median
        rows.append(row)
    return rows


def _print_rber(args: argparse.Namespace) -> None:
    schemes = (
        ProtectionScheme.NONE,
        ProtectionScheme.ECC,
        ProtectionScheme.MILR,
        ProtectionScheme.ECC_MILR,
    )
    setting = ExperimentSetting(
        network_name=args.network,
        error_rates=tuple(args.error_rates),
        trials=args.trials,
        schemes=schemes,
        seed=args.seed,
    )
    result = run_rber_sweep(setting)
    print(
        format_table(
            _sweep_rows(result, schemes),
            title=f"RBER sweep on {args.network} (median normalized accuracy)",
            precision=3,
        )
    )


def _print_whole_weight(args: argparse.Namespace) -> None:
    schemes = (ProtectionScheme.NONE, ProtectionScheme.MILR)
    setting = ExperimentSetting(
        network_name=args.network,
        error_rates=tuple(args.error_rates),
        trials=args.trials,
        schemes=schemes,
        seed=args.seed,
    )
    result = run_whole_weight_sweep(setting)
    print(
        format_table(
            _sweep_rows(result, schemes),
            title=f"Whole-weight error sweep on {args.network} (median normalized accuracy)",
            precision=3,
        )
    )


def _print_whole_layer(args: argparse.Namespace) -> None:
    results = run_whole_layer_experiment(network_name=args.network, seed=args.seed)
    print(
        format_table(
            [row.as_row() for row in results],
            title=f"Whole-layer error accuracy on {args.network}",
            precision=3,
        )
    )


def _print_timing(args: argparse.Namespace) -> None:
    rows = [
        measure_prediction_and_identification(name, batch_size=args.batch_size).as_row()
        for name in args.networks
    ]
    print(format_table(rows, title="Prediction and identification time (seconds)", precision=6))


def _print_recovery_time(args: argparse.Namespace) -> None:
    points = recovery_time_curve(args.network, error_counts=tuple(args.error_counts))
    rows = [
        {
            "errors": point.injected_errors,
            "recovery_s": point.recovery_seconds,
            "layers_recovered": point.recovered_layers,
        }
        for point in points
    ]
    print(format_table(rows, title=f"Recovery time vs errors on {args.network}", precision=4))


def _print_availability(args: argparse.Namespace) -> None:
    tradeoffs = availability_tradeoff_curves(tuple(args.networks), curve_points=args.points)
    rows = []
    for tradeoff in tradeoffs:
        rows.append(
            {
                "network": tradeoff.network,
                "availability@99.999%acc": tradeoff.availability_at_user_a,
                "accuracy@99.9%avail": tradeoff.accuracy_at_user_b,
            }
        )
    print(format_table(rows, title="Availability / accuracy trade-off", precision=6))


def _print_serve(args: argparse.Namespace) -> None:
    import time

    import numpy as np

    from repro.exceptions import ServiceOverloadError
    from repro.service import SelfHealingService, ServiceConfig
    from repro.service.runtime import latency_percentile
    from repro.types import FLOAT_DTYPE

    service = SelfHealingService(
        ServiceConfig(
            scrub_period_seconds=args.scrub_period,
            max_queue_depth=args.max_queue_depth,
            default_deadline_seconds=args.deadline,
        )
    )
    entry = service.load_model(args.network, trained=args.trained, seed=args.seed)
    pool = (
        np.random.default_rng(args.seed)
        .random((32,) + entry.model.input_shape)
        .astype(FLOAT_DTYPE)
    )
    requests = []
    overloaded = 0
    timed_out = 0
    failed = 0
    with service:
        deadline = time.perf_counter() + args.duration
        cursor = 0
        while time.perf_counter() < deadline:
            try:
                requests.append(service.submit(entry.name, pool[cursor % len(pool)]))
            except ServiceOverloadError:
                # Shed at admission (bounded queue / breaker) -- distinct
                # outcome from a request that was admitted but timed out.
                overloaded += 1
            cursor += 1
            time.sleep(args.request_interval)
        for request in requests:
            try:
                request.result(timeout=args.request_timeout)
            except TimeoutError:
                timed_out += 1
            except BaseException:  # noqa: BLE001 - counted, reported below
                failed += 1
    latencies = [
        request.latency_seconds or 0.0
        for request in requests
        if request.done() and not request.failed
    ]
    throughput = len(latencies) / args.duration
    rows = [
        {
            "requests": len(requests),
            "completed": len(latencies),
            "overloaded": overloaded,
            "timed_out": timed_out,
            "failed": failed,
            "rps": throughput,
            "mean_ms": 1e3 * sum(latencies) / max(len(latencies), 1),
            "p99_ms": 1e3 * latency_percentile(latencies, 99),
        }
    ]
    print(format_table(rows, title=f"Serving {args.network} (scrubber on)", precision=3))
    stats = entry.stats
    print(
        f"certified-fused serving: {stats.fused_served} samples fused, "
        f"{stats.fused_fallbacks} fallbacks, "
        f"{stats.fusion_certifications} certifications"
    )
    print(
        format_table(
            [service.sla_report(entry.name).as_row()],
            title="Live SLA (measured Td/Tr in the paper's availability model)",
            precision=6,
        )
    )


def _print_soak(args: argparse.Namespace) -> None:
    from repro.service import run_soak

    result = run_soak(
        network=args.network,
        duration_seconds=args.duration,
        mean_fault_interval_seconds=args.fault_interval,
        max_fault_events=args.max_faults,
        scrub_period_seconds=args.scrub_period,
        request_interval_seconds=args.request_interval,
        trained=args.trained,
        seed=args.seed,
        fault_models=list(args.fault_models) if args.fault_models else None,
        reassert_interval_seconds=args.reassert_interval,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
    )
    print(
        format_table(
            [result.as_row()],
            title=f"Soak scenario on {args.network} (Poisson bit-flip pressure)",
            precision=4,
        )
    )
    print(
        format_table(
            [result.sla.as_row()],
            title="Availability / minimum accuracy (live Figure 12 counterpart)",
            precision=6,
        )
    )
    if result.slo is not None:
        print(
            format_table(
                [result.slo.as_row()],
                title="SLO (admitted-request availability vs target)",
                precision=4,
            )
        )
    if result.fault_chains:
        rows = [
            {
                "fault": chain.fault_id,
                "layer": chain.layer_index,
                "fault_model": chain.fault_model,
                "stages": len(chain.stages),
                "reasserts": chain.reassert_cycles,
                "complete": chain.complete,
                "Td_ms": chain.detection_seconds * 1e3,
                "Tr_ms": chain.repair_seconds * 1e3,
            }
            for chain in result.fault_chains
        ]
        print(
            format_table(
                rows, title="Fault-lifecycle chains (per-fault Td/Tr)", precision=3
            )
        )
    for error in result.errors:
        print(f"traffic thread error: {error}")
    if args.trace_out:
        print(f"span trace written to {args.trace_out}")
    if args.metrics_out:
        print(f"metrics snapshots appended to {args.metrics_out}")


def _print_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.service import run_chaos_scenario

    result = run_chaos_scenario(
        args.scenario,
        duration_seconds=args.duration,
        seed=args.seed,
        network=args.network,
        capacity_rps=args.capacity,
        trained=args.trained,
        scrub_period_seconds=args.scrub_period,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
    )
    if args.json:
        # Pure JSON on stdout (the payload carries `passed`/`violations`);
        # the exit code still gates CI.
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0 if result.passed else 1
    else:
        soak = result.soak
        rows = [
            {
                "scenario": result.scenario,
                "capacity_rps": result.capacity_rps,
                "completed": soak.requests_completed,
                "failed": soak.requests_failed,
                "shed_queue": soak.shed_queue_full,
                "shed_breaker": soak.shed_breaker,
                "shed_deadline": soak.shed_deadline,
                "served_degraded": soak.served_degraded,
                "queue_highwater": soak.queue_depth_highwater,
                "breaker_opens": soak.breaker_opens,
                "faults": len(soak.fault_events),
            }
        ]
        print(
            format_table(
                rows, title=f"Chaos scenario {result.scenario!r}", precision=1
            )
        )
        if soak.slo is not None:
            print(
                format_table(
                    [soak.slo.as_row()],
                    title="SLO (admitted-request availability vs target)",
                    precision=4,
                )
            )
    if result.passed:
        print(f"SLO PASS: {args.scenario}")
        return 0
    print(f"SLO VIOLATION: {args.scenario}")
    for violation in result.violations:
        print(f"  - {violation}")
    return 1


def _print_telemetry(args: argparse.Namespace) -> None:
    import json

    with open(args.metrics, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        print(f"no snapshots in {args.metrics} yet")
        return
    snapshot = json.loads(lines[-1])
    if args.raw:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return
    print(
        f"snapshot {len(lines)} of {args.metrics} "
        f"(wall time {snapshot.get('time', 0.0):.3f})"
    )
    counters = snapshot.get("counters", {})
    if counters:
        rows = [
            {"counter": name, "value": counters[name]} for name in sorted(counters)
        ]
        print(format_table(rows, title="Counters", precision=0))
    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [{"gauge": name, "value": gauges[name]} for name in sorted(gauges)]
        print(format_table(rows, title="Gauges", precision=4))
    histograms = snapshot.get("histograms", {})
    if histograms:
        rows = [
            {
                "histogram": name,
                "count": histograms[name]["count"],
                "sum_s": histograms[name]["sum"],
                "p50_s": histograms[name]["p50"],
                "p99_s": histograms[name]["p99"],
            }
            for name in sorted(histograms)
        ]
        print(format_table(rows, title="Histograms", precision=6))


def _campaign_spec_from_args(args: argparse.Namespace) -> CampaignSpec:
    return CampaignSpec(
        name=args.name,
        networks=tuple(args.networks),
        error_rates=tuple(args.error_rates),
        fault_modes=tuple(args.fault_modes),
        schemes=tuple(args.schemes),
        repetitions=args.repetitions,
        seed=args.seed,
        train_samples_per_class=args.train_samples_per_class,
        train_epochs=args.train_epochs,
        recovery_error_count=args.recovery_error_count,
        fault_events=args.fault_events,
    )


def _parse_shard(value: Optional[str]) -> Optional[tuple]:
    """Parse a ``k/n`` shard flag into a 1-based (k, n) tuple."""
    if value is None:
        return None
    try:
        index, count = (int(part) for part in value.split("/"))
    except ValueError:
        raise SystemExit(f"--shard must look like k/n (e.g. 2/4), got {value!r}")
    if not 1 <= index <= count:
        raise SystemExit(f"--shard must satisfy 1 <= k <= n, got {value!r}")
    return (index, count)


def _print_campaign(args: argparse.Namespace) -> None:
    if args.campaign_command == "report":
        records = open_store(args.store).records()
        print(
            format_campaign_report(
                records, include_timing=not args.no_timing, confidence=args.confidence
            )
        )
        return
    if args.campaign_command == "merge":
        from repro.experiments import merge_stores, store_digest
        from repro.experiments.campaign import TIMING_RESULT_FIELDS

        summary = merge_stores(args.sources, args.into)
        print(
            format_table(
                [summary.as_row()],
                title=f"Merged {len(args.sources)} store(s) into {args.into}",
                precision=0,
            )
        )
        digest = store_digest(
            args.into,
            exclude_result_fields=() if args.with_timing else TIMING_RESULT_FIELDS,
        )
        print(f"store digest: {digest}")
        return
    spec = _campaign_spec_from_args(args)
    store = open_store(args.store)
    if args.campaign_command == "status":
        rows = campaign_status(spec, store)
        print(format_table(rows, title=f"Campaign {spec.name!r} status ({store.path})"))
        return
    summary = run_campaign(
        spec,
        store,
        workers=args.workers,
        max_trials=args.max_trials,
        shard=_parse_shard(args.shard),
    )
    print(
        format_table(
            [summary.as_row()],
            title=f"Campaign {spec.name!r} run ({store.path})",
            precision=0,
        )
    )


_HANDLERS = {
    "summary": _print_summary,
    "campaign": _print_campaign,
    "storage": _print_storage,
    "rber": _print_rber,
    "whole-weight": _print_whole_weight,
    "whole-layer": _print_whole_layer,
    "timing": _print_timing,
    "recovery-time": _print_recovery_time,
    "availability": _print_availability,
    "serve": _print_serve,
    "soak": _print_soak,
    "chaos": _print_chaos,
    "telemetry": _print_telemetry,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Handlers may return an exit code (``chaos`` returns 1 on SLO violation);
    ``None`` means success.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    code = _HANDLERS[args.command](args)
    return int(code or 0)


if __name__ == "__main__":  # pragma: no cover - exercised via main() in tests
    raise SystemExit(main())
