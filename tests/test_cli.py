"""Tests for the command-line interface."""

import gc
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

#: a migrate onto a name the target region already has: the drill fails
#: at the first close
FAILING_DRILL = "reconfig=migrate:network1/region1/router1>network1/region2:0"


class TestQueryCommand:
    def test_demo_routes_cloud_federated_and_cached(self, capsys):
        code = main(
            ["query", "--epochs", "1", "--flows-per-epoch", "150"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: cloud FlowDB" in out  # rolled-up query
        assert "level 'router'" in out  # edge drilldown fans out
        assert "plan: cache (" in out  # repeats hit the cache
        assert "routing: cloud=" in out  # final census line
        assert "replications=" in out

    def test_demo_queries(self, capsys):
        code = main(
            ["query", "--epochs", "1", "--flows-per-epoch", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "network preset: 1 epochs x 4 edge sites" in out
        assert "flowql> SELECT TOTAL FROM ALL\n" in out
        assert (
            "flowql> SELECT TOPK(3) FROM ALL AT network1/region1/router1 "
            "BY bytes" in out
        )
        assert "Score(" in out  # the TOTAL's scalar
        assert out.count("  packets=") == 3  # the drilldown's rows

    def test_explicit_query(self, capsys):
        code = main(
            [
                "query",
                "--epochs", "1",
                "--flows-per-epoch", "200",
                "--query", "SELECT TOPK(2) FROM ALL BY bytes",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("  packets=") == 2

    def test_factory_preset(self, capsys):
        code = main(
            [
                "query",
                "--preset", "factory",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--query", "SELECT TOTAL FROM ALL",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "factory preset" in out
        assert "plan: cloud FlowDB" in out

    def test_no_retain_disables_edge_drilldown(self, capsys):
        code = main(
            [
                "query",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--no-retain",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1  # the demo's edge drilldown cannot be planned
        assert "error:" in out

    def test_bad_query_fails(self, capsys):
        code = main(
            [
                "query",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--query", "SELECT NONSENSE FROM ALL",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().out


class TestRunCommand:
    def test_faultless_run_census(self, capsys):
        code = main(
            ["run", "--epochs", "2", "--flows-per-epoch", "150"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault census: attempts=" in out
        assert "failures=0" in out
        assert "parked=0 recovered=0 still-pending=0" in out

    def test_outage_parks_and_recovers(self, capsys):
        code = main(
            [
                "run",
                "--epochs", "2",
                "--flows-per-epoch", "150",
                "--faults", "outage=region1/router1:1-2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fault plan: drop=0" in out
        assert "epoch 0: exported=1 pending=1" in out  # parked at t=60
        assert "parked=1 recovered=1 still-pending=0" in out

    def test_degraded_query_reported(self, capsys):
        code = main(
            [
                "run",
                "--epochs", "2",
                "--flows-per-epoch", "150",
                "--faults", "outage=region1/router1:2-100",
                "--query",
                "SELECT TOTAL FROM ALL "
                "AT network1/region1/router1, network1/region1/router2",
            ]
        )
        out = capsys.readouterr().out
        # the outage persists: parked exports cannot drain, so the exit
        # code honestly reports data still missing
        assert code == 1
        assert "degraded: partial: missing [network1/region1/router1]" in out
        assert "degraded queries=1" in out
        assert "still-pending=1" in out

    def test_bad_fault_spec_fails(self, capsys):
        code = main(["run", "--faults", "drop=lots"])
        assert code == 2
        assert "error:" in capsys.readouterr().out


class TestMetricsCommand:
    def test_prometheus_exposition_covers_required_families(self, capsys):
        code = main(
            [
                "metrics",
                "--epochs", "2",
                "--flows-per-epoch", "100",
                "--query", "SELECT TOTAL FROM ALL",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        for family in (
            "repro_raw_bytes_total",
            "repro_summary_bytes_total",
            "repro_query_bytes_total",
            "repro_fabric_carried_bytes_total",
            "repro_fabric_wasted_bytes_total",
            "repro_retried_bytes_total",
            "repro_query_cache_events_total",
            "repro_rollup_seconds_bucket",
            "repro_query_seconds_bucket",
        ):
            assert f"# TYPE {family.split('_bucket')[0]}" in out
            assert family in out
        # the repeated demo query turns the second run into a cache hit
        assert 'repro_query_cache_events_total{result="hit"} 1' in out

    def test_json_snapshot_parses(self, capsys):
        import json

        code = main(
            [
                "metrics",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--format", "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        snapshot = json.loads(out)
        assert snapshot["repro_epochs_closed_total"]["kind"] == "counter"
        assert snapshot["repro_epochs_closed_total"]["series"][0][
            "value"
        ] == 1

    def test_fault_plan_surfaces_parked_and_recovered(self, capsys):
        code = main(
            [
                "metrics",
                "--epochs", "2",
                "--flows-per-epoch", "100",
                "--faults", "outage=region1/router1:1-2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (
            'repro_exports_total{level="router",outcome="parked"} 1' in out
        )
        assert (
            'repro_exports_total{level="router",outcome="recovered"} 1'
            in out
        )

    def test_traces_render_span_trees(self, capsys):
        code = main(
            [
                "metrics",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--traces", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "close_epoch" in out
        assert "rollup" in out

    def test_bad_fault_spec_fails(self, capsys):
        code = main(["metrics", "--faults", "drop=lots"])
        assert code == 2
        assert "error:" in capsys.readouterr().out

    def test_bad_query_fails(self, capsys):
        code = main(
            [
                "metrics",
                "--epochs", "1",
                "--flows-per-epoch", "100",
                "--query", "SELECT NONSENSE FROM ALL",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().out


class TestFactoryCommand:
    def test_with_apps_no_failures(self, capsys):
        code = main(
            [
                "factory",
                "--hours", "4",
                "--lines", "1",
                "--machines-per-line", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "failures: 0/2" in out
        assert "maintenance actions:" in out

    def test_baseline_fails(self, capsys):
        code = main(
            [
                "factory",
                "--hours", "6",
                "--lines", "1",
                "--machines-per-line", "2",
                "--no-apps",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # baseline exit code is informational
        assert "without predictive maintenance" in out
        assert "failures: 2/2" in out

    def test_no_machines_fails(self, capsys):
        code = main(["factory", "--lines", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().out


class TestReplicationCommand:
    def test_policy_table(self, capsys):
        code = main(
            ["replication", "--partitions", "100", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("never", "always", "break-even", "distribution-aware"):
            assert name in out
        assert "offline OPT" in out

    def test_distribution_choice(self, capsys):
        code = main(
            [
                "replication",
                "--partitions", "50",
                "--distribution", "geometric",
            ]
        )
        assert code == 0
        assert "geometric trace" in capsys.readouterr().out


class TestTopologyCommand:
    def test_adaptive_budgets_keep_full_region_trees(self, capsys):
        # the sealed region trees are well over a quarter full, so the
        # adaptive cycle must not halve them
        code = main(
            [
                "topology", "--epochs", "3", "--flows-per-epoch", "2000",
                "--adaptive-budgets",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        (region,) = [
            line.split() for line in out.splitlines()
            if line.split()[:1] == ["region"]
        ]
        assert region[2] == "8192"
        assert "region:" not in out  # no region resize printed


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServeCommand:
    def test_smoke_serves_and_reports(self, capsys):
        code = main(
            [
                "serve",
                "--epochs", "1",
                "--flows-per-epoch", "200",
                "--smoke", "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "serving network preset at http://" in out
        assert "node servers" in out
        assert "smoke: 4 queries ok" in out
        assert "server_errors=0" in out

    def test_query_endpoint_round_trip(self, capsys):
        """repro query --endpoint answers from a live repro serve."""
        import re

        from repro.runtime.presets import network_4level_runtime
        from repro.serve import ServePlane
        from repro.simulation.traffic import (
            TrafficConfig,
            TrafficGenerator,
        )

        runtime = network_4level_runtime(retain_partitions=True)
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=200),
            seed=5,
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)
        try:
            with ServePlane(runtime) as plane:
                endpoint = plane.start_background()
                code = main(
                    [
                        "query",
                        "--endpoint", endpoint,
                        "--query", "SELECT TOTAL FROM ALL",
                        "--repeat", "2",
                    ]
                )
            out = capsys.readouterr().out
            assert code == 0
            assert "plan: cloud FlowDB" in out
            assert "plan: cache (cloud)" in out  # repeat hit the cache
            assert re.search(r"Score\(packets=\d+", out)
            assert "server_errors=0" in out
        finally:
            runtime.shutdown()


class TestLifecycle:
    """Every command that builds a runtime shuts it down: nothing its
    closes froze is left in the collector's permanent generation."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--epochs", "1", "--flows-per-epoch", "100"],
            ["subscribe", "--epochs", "1", "--flows-per-epoch", "100"],
            ["metrics", "--epochs", "1", "--flows-per-epoch", "100"],
            ["run", "--epochs", "1", "--flows-per-epoch", "100"],
            ["topology", "--epochs", "1", "--flows-per-epoch", "100"],
            ["serve", "--epochs", "1", "--flows-per-epoch", "100",
             "--smoke", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_runtime_is_thawed_on_exit(self, capsys, argv):
        gc.unfreeze()
        assert main(argv) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("command", ["query", "metrics"])
    def test_runtime_is_thawed_on_error(self, capsys, command):
        gc.unfreeze()
        argv = [command, "--epochs", "1", "--flows-per-epoch", "100"]
        assert main(argv + ["--query", "SELECT NONSENSE FROM ALL"]) == 1
        assert gc.get_freeze_count() == 0


class TestDrillError:
    @pytest.mark.parametrize("command", ["run", "metrics", "topology"])
    def test_failed_drill_is_a_typed_error(self, capsys, command):
        code = main(
            [
                command,
                "--epochs", "2",
                "--flows-per-epoch", "100",
                "--faults", FAILING_DRILL,
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "error: reconfig drill failed:" in out
        assert "already has a child named 'router1'" in out


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["replication", "--partitions", "50"],
            ["query", "--epochs", "1", "--flows-per-epoch", "100"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_reader_that_leaves_early_gets_no_traceback(self, argv):
        # unbuffered: every line is its own write, so the lines after
        # the first one read can meet the closed pipe
        src = pathlib.Path(__file__).parent.parent / "src"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONUNBUFFERED": "1"},
        )
        assert process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=60) in (0, 1)
        assert stderr == b""
