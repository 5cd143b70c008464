"""Command-line interface.

Nine subcommands mirror the example scripts in scriptable form::

    repro query --preset network --query "SELECT TOTAL FROM ALL"
    repro query --endpoint http://127.0.0.1:8080 --query "SELECT TOTAL FROM ALL"
    repro run --faults "drop=0.2,seed=7" --epochs 4
    repro run --data-dir /tmp/flowdb --faults "restart=cloud:1"
    repro serve --epochs 2 --smoke 8
    repro segments /tmp/flowdb
    repro factory --hours 6 --no-apps
    repro replication --partitions 400 --distribution pareto
    repro metrics --faults "drop=0.3,seed=7" --format prometheus

Run ``repro <subcommand> --help`` for the full flag set.  Everything is
deterministic per ``--seed`` (and, for fault plans, per the plan's own
seed).

Subcommands are registered declaratively: one
:class:`Subcommand` row in :data:`SUBCOMMANDS` names the command, its
help line, an argparse configurator, and a runner.  Adding a
subcommand means adding one row — not threading a new name through a
parser builder *and* a dispatch chain.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import AdmissionError, ReproError
from repro.simulation.traffic import drive


@dataclass(frozen=True)
class Subcommand:
    """One declaratively-registered CLI subcommand."""

    name: str
    help: str
    #: installs the subcommand's arguments on its subparser
    configure: Callable[[argparse.ArgumentParser], None]
    #: executes the subcommand; returns the process exit code
    run: Callable[[argparse.Namespace], int]


# ---------------------------------------------------------------------------
# shared argument groups


def _add_drive_args(
    parser: argparse.ArgumentParser,
    epochs: int,
    flows_per_epoch: int,
    seed: int = 42,
) -> None:
    """The preset/epochs/flows/seed block every runtime driver shares."""
    parser.add_argument(
        "--preset", choices=("network", "factory"), default="network",
        help="4-level hierarchy preset to build",
    )
    parser.add_argument("--epochs", type=int, default=epochs)
    parser.add_argument(
        "--flows-per-epoch", type=int, default=flows_per_epoch
    )
    parser.add_argument("--seed", type=int, default=seed)


def _add_faults_arg(
    parser: argparse.ArgumentParser, example: str
) -> None:
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help=f"fault plan spec, e.g. {example!r}",
    )


def _add_query_arg(parser: argparse.ArgumentParser, extra: str) -> None:
    parser.add_argument(
        "--query", action="append", default=None,
        help=f"FlowQL text (repeatable); {extra}",
    )


def _add_client_args(parser: argparse.ArgumentParser) -> None:
    """Where ``query`` / ``subscribe`` run: see :func:`_client_for`."""
    parser.add_argument(
        "--endpoint", metavar="URL", default=None,
        help=(
            "talk to a running 'repro serve' gateway over HTTP instead "
            "of building a local runtime (the same FlowQLClient API "
            "either way)"
        ),
    )
    parser.add_argument(
        "--client-id", default="cli",
        help="client identity the gateway meters admission by",
    )


def _print_result(result, limit: int) -> None:
    """A FlowQL answer: its scalar, or its first ``limit`` rows."""
    if result.scalar is not None:
        print(f"  {result.scalar}")
    else:
        for row in result.rows[:limit]:
            print(f"  {row[0]}  packets={row[1]:,} bytes={row[2]:,}")


def _preset_runtime(args: argparse.Namespace, **kwargs):
    """Build the 4-level preset ``--preset`` names (interior partitions
    retained unless the caller says otherwise)."""
    from repro.runtime.presets import (
        factory_4level_runtime,
        network_4level_runtime,
    )

    preset = (
        network_4level_runtime
        if args.preset == "network"
        else factory_4level_runtime
    )
    kwargs.setdefault("retain_partitions", True)
    return preset(**kwargs)


@contextmanager
def _client_for(args: argparse.Namespace, **kwargs):
    """The one client ``query`` / ``subscribe`` drive: the gateway at
    ``--endpoint`` when given, else a preset runtime built in-process
    and shut down when the client is done."""
    from repro.client import FlowQLClient

    if args.endpoint is not None:
        with FlowQLClient(
            endpoint=args.endpoint, client_id=args.client_id
        ) as client:
            yield client
        return
    with _preset_runtime(args, **kwargs) as runtime:
        yield FlowQLClient(runtime=runtime, client_id=args.client_id)


def _print_refusal(error: ReproError) -> int:
    """Report a failed client call; returns the exit code it maps to."""
    if isinstance(error, AdmissionError):
        print(
            f"  rejected ({error.reason}): retry after "
            f"{error.retry_after_s:.3f}s"
        )
        return 3
    print(f"  error: {error}")
    return 1


# ---------------------------------------------------------------------------
# query (federated planner / served endpoint, via the unified client)


def _configure_query(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=2, flows_per_epoch=800)
    _add_query_arg(
        parser, "default demos cloud routing and an edge drilldown"
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="times each query is issued (repeats show cache hits)",
    )
    parser.add_argument(
        "--no-retain", action="store_true",
        help="drop interior epoch partitions (disables edge drilldown)",
    )
    _add_client_args(parser)


def _print_outcome(outcome, repeats_left: bool = False) -> None:
    print(f"  plan: {outcome.plan.describe()}")
    if outcome.is_degraded:
        print(f"  degraded: {outcome.degradation.describe()}")
        if outcome.degradation.attempted_paths:
            attempted = ", ".join(outcome.degradation.attempted_paths)
            print(f"  attempted: {attempted}")
    if not repeats_left:
        _print_result(outcome, 10)


def _run_query(args: argparse.Namespace) -> int:
    queries = args.query or ["SELECT TOTAL FROM ALL"]
    repeats = max(1, args.repeat)
    with _client_for(args, retain_partitions=not args.no_retain) as client:
        runtime = client.runtime
        if runtime is not None:
            from repro.replication.engine import AdaptiveReplicationEngine
            from repro.replication.ski_rental import BreakEvenPolicy

            runtime.manager.enable_adaptive_replication(
                AdaptiveReplicationEngine(BreakEvenPolicy())
            )
            sites = drive(
                runtime, args.epochs, args.flows_per_epoch, args.seed
            )
            print(
                f"{args.preset} preset: {args.epochs} epochs x "
                f"{len(sites)} edge sites, FlowDB locations: "
                f"{', '.join(runtime.db.locations())}"
            )
            if not args.query:
                queries.append(
                    f"SELECT TOPK(3) FROM ALL AT {sites[0]} BY bytes"
                )
        for text in queries:
            print(f"\nflowql> {text}")
            for repeat in range(repeats):
                try:
                    outcome = client.query(text)
                except ReproError as error:
                    return _print_refusal(error)
                _print_outcome(outcome, repeats_left=repeat + 1 < repeats)
        if runtime is None:
            health = client.health()
            print(
                f"\nserved by {args.endpoint}: routed="
                f"{health['requests_routed']} generation="
                f"{health['generation']} server_errors="
                f"{health['server_errors']}"
            )
        else:
            stats = runtime.stats
            cache = runtime.planner.cache
            engine = runtime.manager.replication_engine
            print(
                f"\nrouting: cloud={stats.queries_cloud} "
                f"federated={stats.queries_federated} "
                f"cached={stats.queries_cached} | cache hits={cache.hits} "
                f"misses={cache.misses} | "
                f"replications={len(engine.outcomes)} | "
                f"wan={runtime.wan_bytes():,} B"
            )
    return 0


# ---------------------------------------------------------------------------
# subscribe (standing queries)


def _configure_subscribe(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=4, flows_per_epoch=500)
    _add_query_arg(
        parser, "default subscribes an edge TOPK and the global TOTAL"
    )
    _add_client_args(parser)
    parser.add_argument(
        "--updates", type=int, default=4,
        help="updates to long-poll for per subscription (HTTP mode)",
    )


def _print_update(update, text: str) -> None:
    tag = f"[{update.subscription_id} seq={update.seq} {update.mode}]"
    print(f"\n{tag} {text}")
    print(
        f"  epoch={update.epoch:g} shipped={update.shipped_bytes:,} B "
        f"changed={update.changed}"
        + (" DEGRADED" if update.degraded else "")
    )
    _print_result(update.result, 5)


def _run_subscribe(args: argparse.Namespace) -> int:
    queries = args.query or ["SUBSCRIBE SELECT TOTAL FROM ALL"]
    with _client_for(args) as client:
        runtime = client.runtime
        if runtime is not None and not args.query:
            queries.append(
                "SUBSCRIBE SELECT TOPK(3) FROM ALL AT "
                f"{runtime.ingest_sites()[0]} BY bytes"
            )
        handles = []
        for text in queries:
            try:
                handle = client.subscribe(text)
            except ReproError as error:
                return _print_refusal(error)
            print(f"subscribed {handle.id}: {text}")
            handles.append((handle, text))
        for handle, text in handles:
            first = handle.latest()
            if first is not None:
                _print_update(first, text)
        # a served runtime closes epochs on its own; a local one is
        # driven here, one update per subscription per close
        wanted, wait_s = args.updates, 10.0
        if runtime is not None:
            wanted, wait_s = args.epochs, 0.0
            print(
                f"\ndriving {args.epochs} epochs x "
                f"{len(runtime.ingest_sites())} edge sites "
                f"({args.preset} preset):"
            )
            drive(runtime, args.epochs, args.flows_per_epoch, args.seed)
        seen = {handle.id: 0 for handle, _ in handles}
        while any(count < wanted for count in seen.values()):
            progressed = False
            for handle, text in handles:
                if seen[handle.id] >= wanted:
                    continue
                for update in handle.poll(wait_s=wait_s):
                    _print_update(update, text)
                    seen[handle.id] += 1
                    progressed = True
            if not progressed:
                print(
                    f"\nno further updates within {wait_s:g}s (is the "
                    "runtime closing epochs?)"
                )
                break
        census = (
            client.health()["subscriptions"]
            if runtime is None
            else runtime.planner.subscriptions.census()
        )
        print(
            f"\nregistry: updates={census['updates_published']} "
            f"delta={census['delta_refreshes']} "
            f"rebuilds={census['rebuilds']} "
            f"shipped={census['shipped_bytes_total']:,} B"
        )
        for handle, _text in handles:
            handle.cancel()
    return 0


# ---------------------------------------------------------------------------
# serve (the networked FlowQL serving plane)


def _configure_serve(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=2, flows_per_epoch=500)
    parser.add_argument(
        "--port", type=int, default=0,
        help="gateway TCP port (0 = ephemeral, printed at boot)",
    )
    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="admission tokens per client per second",
    )
    parser.add_argument(
        "--burst", type=float, default=50.0,
        help="admission token-bucket burst ceiling",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64,
        help="per-node bounded request queue (full = HTTP 429)",
    )
    parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-request deadline; overruns degrade to partial outcomes",
    )
    parser.add_argument(
        "--smoke", type=int, default=0, metavar="N",
        help="run N self-check queries through the gateway, then report",
    )
    parser.add_argument(
        "--duration", type=float, default=0.0, metavar="SECONDS",
        help="keep serving this long after boot (0 = exit after smoke)",
    )


def _run_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.client import FlowQLClient
    from repro.serve import ServePlane

    with _preset_runtime(args) as runtime:
        sites = drive(runtime, args.epochs, args.flows_per_epoch, args.seed)
        with ServePlane(
            runtime,
            gateway_port=args.port,
            queue_limit=args.queue_limit,
            timeout_s=args.timeout,
            admission_rate_per_s=args.rate,
            admission_burst=args.burst,
        ) as plane:
            endpoint = plane.start_background()
            print(
                f"serving {args.preset} preset at {endpoint} "
                f"({len(plane.nodes)} node servers, root "
                f"{plane.root_label!r})"
            )
            print(
                f"  admission: {args.rate:g}/s per client "
                f"(burst {args.burst:g}) | queue limit "
                f"{args.queue_limit} | timeout {args.timeout:g}s"
            )
            if args.smoke > 0:
                demo = [
                    "SELECT TOTAL FROM ALL",
                    f"SELECT TOPK(3) FROM ALL AT {sites[0]} BY bytes",
                ]
                latencies = []
                with FlowQLClient(
                    endpoint=endpoint, client_id="serve-smoke"
                ) as client:
                    for index in range(args.smoke):
                        text = demo[index % len(demo)]
                        started = _time.perf_counter()
                        try:
                            outcome = client.query(text)
                        except ReproError as error:
                            print(f"  smoke error: {error}")
                            return 1
                        latencies.append(
                            _time.perf_counter() - started
                        )
                        if outcome.is_degraded:
                            print(
                                "  smoke degraded: "
                                f"{outcome.degradation.describe()}"
                            )
                latencies.sort()
                print(
                    f"  smoke: {args.smoke} queries ok, p50 "
                    f"{latencies[len(latencies) // 2] * 1000:.2f} ms, "
                    f"max {latencies[-1] * 1000:.2f} ms"
                )
            if args.duration > 0:
                print(f"  serving for {args.duration:g}s ...")
                _time.sleep(args.duration)
            census = plane.census()
            print(
                f"  served: routed={census['requests_routed']} "
                f"admission rejected="
                f"{census['admission']['rejected']} "
                f"server_errors={census['server_errors']}"
            )
            return 0 if census["server_errors"] == 0 else 1


# ---------------------------------------------------------------------------
# run (rollup under faults)


def _configure_run(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=4, flows_per_epoch=800)
    _add_faults_arg(
        parser, "drop=0.2,seed=7,outage=region1/router1:1-2,bw=0.5"
    )
    parser.add_argument(
        "--recovery-epochs", type=int, default=3,
        help="extra empty epoch closes to drain parked exports",
    )
    _add_query_arg(parser, "run after the rollup")
    parser.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help=(
            "durable storage: seal each epoch into an on-disk segment "
            "log under DIR and recover from it when DIR already holds "
            "a manifest (default: in-memory engine)"
        ),
    )


def _run_run(args: argparse.Namespace) -> int:
    storage = None
    try:
        if args.data_dir:
            from repro.storage import SegmentLogEngine

            storage = SegmentLogEngine(args.data_dir)
        runtime = _preset_runtime(args, storage=storage)
    except ReproError as error:  # a torn manifest, a foreign checkpoint
        print(f"error: {error}")
        return 2
    with runtime:
        if storage is not None:
            if runtime._recoveries:
                print(
                    f"recovered from {args.data_dir}: "
                    f"{runtime._recovered_records} summaries, "
                    f"epoch {runtime.stats.epochs_closed}"
                )
            else:
                print(f"durable storage: segment log at {args.data_dir}")
        return _drive_run(args, runtime)


def _drive_rollup(
    args: argparse.Namespace, runtime, say, on_close=None
) -> int:
    """The one drive of ``run``, ``metrics`` and ``topology``: inject
    ``--faults``, drive the traffic epochs, then close empty epochs
    until nothing is parked or ``--recovery-epochs`` runs out.  ``say``
    hears the plan and each recovery close, ``on_close`` each traffic
    close.  Returns 0, or the exit code of the error it printed: 2 when
    ``--faults`` does not parse, 1 when a reconfig drill fails."""
    from repro.faults import FaultPlan

    if args.faults:
        try:
            plan = FaultPlan.from_spec(args.faults)
        except ReproError as error:
            print(f"error: {error}")
            return 2
        runtime.inject_faults(plan)
        say(f"fault plan: {plan.describe()}")
    epoch_s = runtime.epoch_seconds
    recovery = 0
    try:
        drive(
            runtime, args.epochs, args.flows_per_epoch, args.seed,
            on_close=on_close,
        )
        while runtime.pending_exports() and recovery < args.recovery_epochs:
            recovery += 1
            runtime.close_epoch((args.epochs + recovery) * epoch_s)
            say(
                f"recovery close {recovery}: "
                f"pending={runtime.pending_exports()}"
            )
    except ReproError as error:
        print(f"error: reconfig drill failed: {error}")
        return 1
    return 0


def _drive_run(args: argparse.Namespace, runtime) -> int:
    from repro.client import FlowQLClient

    code = _drive_rollup(
        args, runtime, print,
        on_close=lambda epoch, exported: print(
            f"epoch {epoch}: exported={exported} "
            f"pending={runtime.pending_exports()} "
            f"wan={runtime.wan_bytes():,} B"
        ),
    )
    if code:
        return code
    client = FlowQLClient(runtime=runtime, client_id="cli-run")
    for text in args.query or []:
        print(f"\nflowql> {text}")
        try:
            outcome = client.query(text)
        except ReproError as error:
            print(f"  error: {error}")
            return 1
        _print_outcome(outcome)
    stats = runtime.stats
    print(
        f"\nfault census: attempts={stats.transfer_attempts} "
        f"failures={stats.transfer_failures} "
        f"retried={stats.retried_bytes:,} B "
        f"wasted={runtime.fabric.wasted_bytes():,} B"
    )
    print(
        f"  exports: parked={stats.exports_parked} "
        f"recovered={stats.exports_recovered} "
        f"still-pending={runtime.pending_exports()} | "
        f"degraded queries={stats.queries_degraded}"
    )
    print(
        f"  volume: raw={stats.raw_bytes:,} B wan={runtime.wan_bytes():,} B "
        f"reduction={stats.reduction_factor:.0f}x"
    )
    if runtime.engine.durable or runtime._restarts:
        storage = runtime.storage_stats()
        print(
            f"  storage[{storage['engine']}]: "
            f"records={storage['records']} "
            f"segments={storage['segments']} "
            f"({storage['segment_bytes']:,} B) "
            f"manifests={storage['manifest_writes']} "
            f"restarts={storage['restarts']}"
        )
    return 0 if runtime.pending_exports() == 0 else 1


# ---------------------------------------------------------------------------
# segments (durable storage census)


def _configure_segments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "data_dir", metavar="DIR",
        help="data directory written by 'repro run --data-dir DIR'",
    )
    parser.add_argument(
        "--compact", action="store_true",
        help="compact the segment log before printing the census",
    )


def _run_segments(args: argparse.Namespace) -> int:
    from repro.runtime.checkpoint import load
    from repro.storage import SegmentLogEngine

    try:
        engine = SegmentLogEngine(args.data_dir)
        checkpoint = load(engine)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    if checkpoint is None:
        print(f"no manifest under {args.data_dir} (nothing sealed yet)")
        return 1
    if args.compact:
        outcome = engine.compact()
        print(
            f"compacted: removed {outcome['segments_removed']} segments, "
            f"reclaimed {outcome['reclaimed_bytes']:,} B"
        )
    stats = engine.stats()
    print(
        f"segment log at {args.data_dir}: {stats['records']} records in "
        f"{stats['segments']} segments ({stats['segment_bytes']:,} B)"
    )
    print(
        f"  manifest: epoch {checkpoint.epochs_closed}, "
        f"generation {checkpoint.generation}, "
        f"{len(checkpoint.stores)} stores, "
        f"{len(checkpoint.pending)} pending queues"
    )
    if stats.get("orphan_segments"):
        print(f"  orphan segments ignored: {stats['orphan_segments']}")
    print(f"  {'segment':<16}{'epoch':>7}{'records':>9}{'bytes':>12}")
    for row in engine.segments():
        compacted = "  (compacted)" if row.get("compacted") else ""
        print(
            f"  {row['file']:<16}{row.get('epoch', '-'):>7}"
            f"{row['records']:>9}{row['bytes']:>12,}{compacted}"
        )
    return 0


# ---------------------------------------------------------------------------
# metrics (observability exposition)


def _configure_metrics(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=3, flows_per_epoch=500)
    _add_faults_arg(parser, "drop=0.3,seed=7")
    parser.add_argument(
        "--recovery-epochs", type=int, default=3,
        help="extra empty epoch closes to drain parked exports",
    )
    _add_query_arg(
        parser,
        "run twice after the rollup (the repeat exercises the query "
        "cache)",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="exposition format to print",
    )
    parser.add_argument(
        "--traces", type=int, default=0, metavar="N",
        help="also print the last N span trees (0 = none)",
    )


def _run_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.client import FlowQLClient
    from repro.obs import render_prometheus

    with _preset_runtime(args) as runtime:
        code = _drive_rollup(args, runtime, say=lambda line: None)
        if code:
            return code
        client = FlowQLClient(runtime=runtime, client_id="cli-metrics")
        for text in args.query or []:
            # twice each: the repeat turns a miss into a cache hit
            for _ in range(2):
                try:
                    client.query(text)
                except ReproError as error:
                    print(f"error: {error}")
                    return 1
        if args.format == "json":
            print(json.dumps(runtime.obs.registry.snapshot(), indent=2))
        else:
            print(render_prometheus(runtime.obs.registry), end="")
        if args.traces > 0:
            for root in runtime.obs.tracer.traces()[-args.traces:]:
                print()
                print(root.render())
    return 0


# ---------------------------------------------------------------------------
# factory


def _configure_factory(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument("--lines", type=int, default=2)
    parser.add_argument("--machines-per-line", type=int, default=3)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument(
        "--no-apps", action="store_true",
        help="disable predictive maintenance (baseline run)",
    )


def _run_factory(args: argparse.Namespace) -> int:
    from repro.scenarios.factory import FactoryScenario

    with_apps = not args.no_apps
    try:
        scenario = FactoryScenario(
            lines=args.lines,
            machines_per_line=args.machines_per_line,
            seed=args.seed,
            with_maintenance=with_apps,
        )
    except ReproError as error:  # a plant with no machines
        print(f"error: {error}")
        return 2
    outcome = scenario.run(hours=args.hours)
    print(
        f"simulated {args.hours:g} h, {outcome.machines} machines "
        f"({'with' if with_apps else 'without'} predictive maintenance)"
    )
    print(f"  failures: {len(outcome.failures)}/{outcome.machines}")
    for machine_id, failed_at in outcome.failures:
        print(f"    {machine_id} at t={failed_at/3600:.1f} h")
    if with_apps:
        print(f"  maintenance actions: {len(outcome.maintenance_decisions)}")
    print(f"  emergency stops: {outcome.emergency_stops}")
    print(f"  stored partitions: {outcome.partitions_stored} "
          f"({outcome.stored_bytes:,} B)")
    return 0 if (not with_apps or not outcome.failures) else 1


# ---------------------------------------------------------------------------
# topology (live census)


def _configure_topology(parser: argparse.ArgumentParser) -> None:
    _add_drive_args(parser, epochs=2, flows_per_epoch=500)
    _add_faults_arg(parser, "reconfig=leave:network1/region1/router2:0")
    parser.add_argument(
        "--adaptive-budgets", action="store_true",
        help="resize each level's node budget from the trees it sealed",
    )
    parser.set_defaults(recovery_epochs=0)  # census what drills left


def _run_topology(args: argparse.Namespace) -> int:
    with _preset_runtime(args) as runtime:
        if args.adaptive_budgets:
            runtime.enable_adaptive_budgets()
        code = _drive_rollup(args, runtime, print)
        if code:
            return code
        census = runtime.model.census()
        print(f"\ntopology census (root {census['root']!r})")
        print(f"  generation: {census['generation']}")
        print(f"  {'level':<12}{'nodes':>7}{'budget':>10}{'deadline':>10}")
        for row in census["levels"]:
            budget = row["node_budget"]
            deadline = row["deadline_seconds"]
            print(
                f"  {row['level']:<12}{row['nodes']:>7}"
                f"{budget if budget is not None else '-':>10}"
                f"{f'{deadline:g}s' if deadline is not None else '-':>10}"
            )
        if census["op_counts"]:
            ops = ", ".join(
                f"{op}={count}"
                for op, count in sorted(census["op_counts"].items())
            )
            print(f"  reconfig ops: {ops}")
        pending = census["pending_migrations"]
        print(
            f"  migrated: {census['migrated_bytes']:,} B in "
            f"{census['migrated_summaries']} summaries | "
            f"pending migrations: {len(pending)}"
        )
        for entry in pending:
            print(
                f"    {entry['op']}: {entry['origin']} -> "
                f"{entry['target']} ({entry['size_bytes']:,} B)"
            )
        if census["resizes"]:
            print("  last budget resize per level:")
            for level, resize in census["resizes"].items():
                print(
                    f"    {level}: {resize['old']} -> {resize['new']} "
                    f"(pressure={resize['pressure']:.1f} "
                    f"fullness={resize['fullness']:.2f} "
                    f"at={resize['at']:g})"
                )
        return 0


# ---------------------------------------------------------------------------
# replication


def _configure_replication(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--partitions", type=int, default=400)
    parser.add_argument(
        "--partition-mb", type=float, default=10.0,
        help="replication cost per partition in MB",
    )
    parser.add_argument("--mean-result-mb", type=float, default=1.0)
    parser.add_argument(
        "--distribution", choices=("pareto", "geometric", "lognormal"),
        default="pareto",
    )
    parser.add_argument("--seed", type=int, default=3)


def _run_replication(args: argparse.Namespace) -> int:
    from repro.replication.engine import compare_policies
    from repro.simulation.querytrace import QueryTraceConfig

    config = QueryTraceConfig(
        partitions=args.partitions,
        partition_bytes=int(args.partition_mb * 1e6),
        mean_result_bytes=int(args.mean_result_mb * 1e6),
        run_length_distribution=args.distribution,
        run_length_param={"pareto": 1.3, "geometric": 1.0,
                          "lognormal": 1.0}[args.distribution],
    )
    table = compare_policies(config, args.seed, args.seed)
    optimal = table.optimal_bytes
    print(
        f"{args.distribution} trace: {len(table.trace)} accesses over "
        f"{args.partitions} partitions, offline OPT = {optimal/1e6:.0f} MB"
    )
    print(f"  {'policy':<22}{'network':>12}{'vs OPT':>9}{'replications':>14}")
    for costs in table.costs:
        print(
            f"  {costs.policy:<22}{costs.total_bytes/1e6:>10.0f}MB"
            f"{costs.competitive_ratio(optimal):>9.3f}"
            f"{costs.replications:>14}"
        )
    return 0


# ---------------------------------------------------------------------------
# the registry: one row per subcommand


SUBCOMMANDS: Tuple[Subcommand, ...] = (
    Subcommand(
        "query",
        "route FlowQL through the federated planner or a served "
        "endpoint",
        _configure_query,
        _run_query,
    ),
    Subcommand(
        "subscribe",
        "register standing FlowQL queries and watch delta-maintained "
        "updates per epoch",
        _configure_subscribe,
        _run_subscribe,
    ),
    Subcommand(
        "serve",
        "boot the networked FlowQL serving plane (gateway + node "
        "servers)",
        _configure_serve,
        _run_serve,
    ),
    Subcommand(
        "run",
        "drive a 4-level rollup, optionally under a fault plan",
        _configure_run,
        _run_run,
    ),
    Subcommand(
        "segments",
        "print the segment census of a durable data directory",
        _configure_segments,
        _run_segments,
    ),
    Subcommand(
        "metrics",
        "drive a rollup (optionally under faults) and emit the "
        "observability exposition",
        _configure_metrics,
        _run_metrics,
    ),
    Subcommand(
        "factory",
        "run the smart-factory scenario",
        _configure_factory,
        _run_factory,
    ),
    Subcommand(
        "topology",
        "drive a rollup (optionally with reconfig drills) and print "
        "the live topology census",
        _configure_topology,
        _run_topology,
    ),
    Subcommand(
        "replication",
        "compare replication policies on a trace",
        _configure_replication,
        _run_replication,
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed mega-datasets reproduction: Flowstream/FlowQL, "
            "the smart-factory loop, adaptive replication, and the "
            "networked serving plane."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command in SUBCOMMANDS:
        command.configure(
            subparsers.add_parser(command.name, help=command.help)
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    runners = {command.name: command.run for command in SUBCOMMANDS}
    try:
        code = runners[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (``repro ... | head``): send what is still
        # buffered to devnull so the exit flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
