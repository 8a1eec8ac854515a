"""Tests for the experiment command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.experiments.campaign import FAULT_MODES
from repro.memory import fault_model_names


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["summary", "--network", "nope"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["rber"])
        assert args.network == "mnist_reduced"
        assert args.trials == 3

    def test_error_rates_parsed_as_floats(self):
        args = build_parser().parse_args(["whole-weight", "--error-rates", "1e-4", "1e-3"])
        assert args.error_rates == [1e-4, 1e-3]

    def test_soak_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.network == "mnist_reduced"
        assert args.scrub_period == 0.25
        assert args.fault_interval == 0.2
        assert args.max_faults is None
        assert not args.trained

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            ["serve", "--network", "cifar_reduced", "--duration", "1.5"]
        )
        assert args.network == "cifar_reduced"
        assert args.duration == 1.5

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run", "--store", "x.jsonl"])
        assert args.campaign_command == "run"
        assert args.networks == ["mnist_reduced"]
        assert args.fault_modes == ["rber"]
        assert args.schemes == ["none", "ecc", "milr", "ecc+milr"]
        assert args.repetitions == 3
        assert args.workers is None
        assert args.max_trials is None

    def test_campaign_run_rejects_unknown_network_and_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "--store", "x.jsonl", "--networks", "nope"]
            )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "--store", "x.jsonl", "--fault-modes", "nope"]
            )

    def test_every_fault_mode_is_a_valid_choice(self):
        # The zoo modes are auto-populated from FAULT_MODES; a new registry
        # entry must never silently miss the CLI.
        for mode in FAULT_MODES:
            args = build_parser().parse_args(
                ["campaign", "run", "--store", "x.jsonl", "--fault-modes", mode]
            )
            assert args.fault_modes == [mode]

    def test_campaign_fault_events_default(self):
        args = build_parser().parse_args(["campaign", "run", "--store", "x.jsonl"])
        assert args.fault_events == 3
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "x.jsonl", "--fault-events", "5"]
        )
        assert args.fault_events == 5

    def test_soak_fault_model_arguments(self):
        args = build_parser().parse_args(["soak"])
        assert args.fault_models is None
        assert args.reassert_interval == 0.2
        args = build_parser().parse_args(
            ["soak", "--fault-models", "stuck_at", "row_hammer", "--reassert-interval", "0.5"]
        )
        assert args.fault_models == ["stuck_at", "row_hammer"]
        assert args.reassert_interval == 0.5

    def test_soak_fault_models_cover_the_registry(self):
        # choices= comes from fault_model_names(): every registered model
        # parses, anything else exits.
        for name in fault_model_names():
            args = build_parser().parse_args(["soak", "--fault-models", name])
            assert args.fault_models == [name]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["soak", "--fault-models", "no_such_model"])

    def test_campaign_report_arguments(self):
        args = build_parser().parse_args(
            ["campaign", "report", "--store", "x.jsonl", "--no-timing"]
        )
        assert args.campaign_command == "report"
        assert args.no_timing
        assert args.confidence == 0.95


class TestCommands:
    def test_summary_prints_architecture(self, capsys):
        assert main(["summary", "--network", "mnist"]) == 0
        output = capsys.readouterr().out
        assert "Conv2D" in output
        assert "1,669,290" in output

    def test_storage_reduced_network(self, capsys):
        assert main(["storage", "--networks", "mnist_reduced"]) == 0
        output = capsys.readouterr().out
        assert "milr_mb" in output

    def test_whole_layer_command(self, capsys):
        assert main(["whole-layer", "--network", "mnist_reduced"]) == 0
        output = capsys.readouterr().out
        assert "block1_conv" in output

    def test_recovery_time_command(self, capsys):
        assert main(["recovery-time", "--network", "mnist_reduced", "--error-counts", "10", "50"]) == 0
        output = capsys.readouterr().out
        assert "recovery_s" in output

    def test_timing_command_reduced(self, capsys):
        assert main(["timing", "--networks", "mnist_reduced", "--batch-size", "8"]) == 0
        output = capsys.readouterr().out
        assert "identification_s" in output

    def test_whole_weight_command(self, capsys):
        assert (
            main(
                [
                    "whole-weight",
                    "--network",
                    "mnist_reduced",
                    "--trials",
                    "1",
                    "--error-rates",
                    "1e-4",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "milr" in output

    def test_availability_command(self, capsys):
        assert main(["availability", "--networks", "mnist_reduced", "--points", "5"]) == 0
        output = capsys.readouterr().out
        assert "availability@99.999%acc" in output

    def test_serve_command(self, capsys):
        assert (
            main(["serve", "--duration", "0.5", "--request-interval", "0.005"]) == 0
        )
        output = capsys.readouterr().out
        assert "Serving mnist_reduced" in output
        assert "availability" in output

    def test_campaign_run_status_report(self, capsys, tmp_path):
        store = str(tmp_path / "campaign.jsonl")
        grid = [
            "--store",
            store,
            "--networks",
            "mnist_reduced",
            "--error-rates",
            "1e-4",
            "--schemes",
            "none",
            "milr",
            "--repetitions",
            "1",
            "--train-samples-per-class",
            "8",
            "--train-epochs",
            "1",
        ]
        assert main(["campaign", "run", *grid, "--workers", "1"]) == 0
        output = capsys.readouterr().out
        assert "executed" in output

        # Re-running the finished campaign is a no-op.
        assert main(["campaign", "run", *grid, "--workers", "1"]) == 0
        output = capsys.readouterr().out
        assert "executed" in output and "0" in output

        assert main(["campaign", "status", *grid]) == 0
        output = capsys.readouterr().out
        assert "mnist_reduced" in output and "pending" in output

        assert main(["campaign", "report", "--store", store, "--no-timing"]) == 0
        output = capsys.readouterr().out
        assert "detection_rate" in output
        assert "mean_td_ms" not in output

    def test_soak_command(self, capsys):
        assert (
            main(
                [
                    "soak",
                    "--duration",
                    "2.0",
                    "--fault-interval",
                    "0.1",
                    "--max-faults",
                    "4",
                    "--scrub-period",
                    "0.1",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "Soak scenario on mnist_reduced" in output
        assert "bit_exact" in output
        assert "min_accuracy" in output

    def test_soak_trace_flags_default_off(self):
        args = build_parser().parse_args(["soak"])
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_telemetry_requires_metrics_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry"])
        args = build_parser().parse_args(["telemetry", "--metrics", "m.jsonl"])
        assert args.metrics == "m.jsonl"
        assert not args.raw

    def test_soak_exports_and_telemetry_reads_them(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.jsonl"
        assert (
            main(
                [
                    "soak",
                    "--duration",
                    "1.0",
                    "--fault-interval",
                    "0.1",
                    "--max-faults",
                    "2",
                    "--scrub-period",
                    "0.1",
                    "--seed",
                    "3",
                    "--trace-out",
                    str(trace),
                    "--metrics-out",
                    str(metrics),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fault chains" in output or "fault-00001" in output
        assert trace.exists() and metrics.exists()

        assert main(["telemetry", "--metrics", str(metrics)]) == 0
        output = capsys.readouterr().out
        assert "repro_serve_requests_total" in output

        assert main(["telemetry", "--metrics", str(metrics), "--raw"]) == 0
        assert "counters" in capsys.readouterr().out


class TestChaosAndOverloadCli:
    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "burst-storm"])
        assert args.scenario == "burst-storm"
        assert args.duration == 4.0
        assert args.capacity is None
        assert not args.json

    def test_chaos_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "not-a-scenario"])

    def test_serve_overload_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--request-timeout",
                "2.5",
                "--max-queue-depth",
                "64",
                "--deadline",
                "0.5",
            ]
        )
        assert args.request_timeout == 2.5
        assert args.max_queue_depth == 64
        assert args.deadline == 0.5
        # Defaults: the old hardcoded 30 s timeout, unbounded, no deadline.
        defaults = build_parser().parse_args(["serve"])
        assert defaults.request_timeout == 30.0
        assert defaults.max_queue_depth == 0
        assert defaults.deadline is None

    def test_campaign_shard_parsing(self):
        args = build_parser().parse_args(
            ["campaign", "run", "--store", "x.jsonl", "--shard", "2/4"]
        )
        assert args.shard == "2/4"
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", "x.jsonl", "--shard", "nope"])
        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", "x.jsonl", "--shard", "0/4"])

    def test_campaign_merge_parser(self):
        args = build_parser().parse_args(
            ["campaign", "merge", "a.jsonl", "b.jsonl", "--into", "m.jsonl"]
        )
        assert args.campaign_command == "merge"
        assert args.sources == ["a.jsonl", "b.jsonl"]
        assert args.into == "m.jsonl"
        assert not args.with_timing

    def test_chaos_command_passes_and_reports(self, capsys):
        # A generous capacity estimate keeps the run tiny; the fixed seed
        # makes the trace deterministic.
        assert (
            main(
                [
                    "chaos",
                    "burst-storm",
                    "--duration",
                    "1.0",
                    "--capacity",
                    "400",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "SLO PASS: burst-storm" in output

    def test_chaos_command_json_payload(self, capsys):
        import json

        assert (
            main(
                [
                    "chaos",
                    "straggler-flood",
                    "--duration",
                    "1.0",
                    "--capacity",
                    "300",
                    "--seed",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "straggler-flood"
        assert payload["passed"] is True
        assert "admitted_availability" in payload["slo"]

    def test_serve_command_reports_overload_columns(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--duration",
                    "0.5",
                    "--request-interval",
                    "0.005",
                    "--request-timeout",
                    "5.0",
                    "--max-queue-depth",
                    "32",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "overloaded" in output
        assert "timed_out" in output

    def test_campaign_shard_and_merge_round_trip(self, capsys, tmp_path):
        grid = [
            "--networks",
            "mnist_reduced",
            "--error-rates",
            "1e-4",
            "--schemes",
            "none",
            "milr",
            "--repetitions",
            "1",
            "--train-samples-per-class",
            "8",
            "--train-epochs",
            "1",
        ]
        serial = str(tmp_path / "serial.jsonl")
        assert main(["campaign", "run", "--store", serial, *grid, "--workers", "1"]) == 0
        capsys.readouterr()
        shards = []
        for k in (1, 2):
            shard = str(tmp_path / f"shard{k}.jsonl")
            shards.append(shard)
            assert (
                main(
                    [
                        "campaign",
                        "run",
                        "--store",
                        shard,
                        *grid,
                        "--workers",
                        "1",
                        "--shard",
                        f"{k}/2",
                    ]
                )
                == 0
            )
            capsys.readouterr()

        merged = str(tmp_path / "merged.jsonl")
        assert main(["campaign", "merge", *shards, "--into", merged]) == 0
        merged_digest = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("store digest:")
        ]
        assert merged_digest

        # Digest of the serial store, via a single-source merge into a copy.
        serial_copy = str(tmp_path / "serial_copy.jsonl")
        assert main(["campaign", "merge", serial, "--into", serial_copy]) == 0
        serial_digest = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("store digest:")
        ]
        assert serial_digest == merged_digest
