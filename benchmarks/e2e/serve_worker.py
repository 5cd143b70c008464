"""The process that holds the runtime: one *pass* of one workload.

The harness (``run.py``) starts this module fresh for every pass, so
each pass pays its own imports and set-up, has its own heap, collector
state and ``ru_maxrss``, and the generator never shares an interpreter
with the program.  A pass generates the trace once and then runs
``laps`` identical *laps* over it, each on a newly built runtime and
serving plane; the harness keeps, for every op, its fastest time over
all laps.  Protocol, one JSON object per line on stdout; per lap:

1. set-up — the lap's CPU, runtime, (first lap) generated trace,
   standing queries, serving plane, (traced) the ledger's wrappers;
2. the measured rounds — ``runtime.ingest`` per batch,
   ``runtime.close_epoch``, in-process ``FlowQLClient`` queries;
3. ``{"event": "serving", "endpoint": ..., "hot": [...], "cpu": ...}`` — the
   harness now drives the HTTP closed loop, then writes one line to
   stdin;
4. ``{"event": "lap", ...}`` — samples, facts the gates compare,
   public stats and (traced) the ledger;

and after the last lap ``{"event": "exit", "rss_mb": ...}``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import time

from benchmarks.e2e import workloads
from benchmarks.e2e.ledger import GcWatch, Ledger
from repro.client import FlowQLClient
from repro.serve import ServePlane

#: every layer but the HTTP client, which lives in the harness process
WORKER_LAYERS = (
    "runtime", "datastore", "core", "flows", "hierarchy", "flowdb",
    "storage", "query", "flowql", "serve",
)


def emit(event: str, **body) -> None:
    print(json.dumps({"event": event, **body}), flush=True)


def run_lap(spec: dict, lap: int, workload, shared: dict) -> dict:
    """Set up, measure and serve once; returns the lap's report."""
    # before the plane exists: its threads inherit the CPU
    cpu = workloads.lap_cpu(spec["first_lap"] + lap)
    workloads.pin(cpu)
    data_dir = None
    if workload.durable:
        data_dir = os.path.join(spec["data_dir"], f"lap{lap}")
    runtime = workloads.build_runtime(workload, data_dir)
    plane = None
    ledger = Ledger()
    gc_watch = GcWatch()
    try:
        sites = runtime.ingest_sites()
        if not shared:
            shared["trace"], shared["mass"] = workloads.build_trace(
                sites, workload, spec["seed"]
            )
        standing = [
            (text, runtime.subscribe(text))
            for text in workloads.standing_queries(sites, workload.standing)
        ]
        plane = ServePlane(runtime, admission_rate_per_s=10_000)
        endpoint = plane.start_background()
        client = FlowQLClient(runtime=runtime)
        if spec["traced"]:
            ledger.install(WORKER_LAYERS)
            gc_watch.install()
        setup_s = time.time() - spec["spawned_at"]

        # -- the measured rounds --------------------------------------------
        perf = time.perf_counter
        ingest_s, close_s, cold_s, hit_s = [], [], [], []
        attempted = failed = records = 0
        digest = hashlib.sha256()
        wan_bytes = 0
        dashboard = workloads.dashboard(sites)

        def ask(text: str) -> None:
            nonlocal attempted, failed
            attempted += 1
            try:
                started = perf()
                outcome = client.query(text)
                elapsed = perf() - started
            except Exception as exc:  # noqa: BLE001 - a failed op, counted
                failed += 1
                print(f"# query failed: {text!r}: {exc}", file=sys.stderr)
                return
            if outcome.is_degraded:
                failed += 1
                return
            (hit_s if outcome.cache.hit else cold_s).append(elapsed)
            digest.update(b"hit" if outcome.cache.hit else b"miss")
            digest.update(
                json.dumps(outcome.result.to_wire(), sort_keys=True).encode()
            )

        for index, per_site in enumerate(shared["trace"]):
            closed = index + 1
            # An automatic full collection costs 50-150 ms here and is
            # triggered by allocation counts.  Collecting (untimed)
            # before the ingest and before the queries of a round leaves
            # those pauses with the close that allocates, whatever the
            # seed, instead of on a 1 ms ingest call or a 10 ms query.
            gc_watch.collect()
            for site, batches in per_site:
                for batch in batches:
                    attempted += 1
                    try:
                        started = perf()
                        runtime.ingest(site, batch)
                        ingest_s.append(perf() - started)
                        records += len(batch)
                    except Exception as exc:  # noqa: BLE001
                        failed += 1
                        print(f"# ingest failed: {exc}", file=sys.stderr)
            attempted += 1
            try:
                started = perf()
                runtime.close_epoch(closed * workloads.EPOCH_SECONDS)
                close_s.append(perf() - started)
            except Exception as exc:  # noqa: BLE001
                failed += 1
                print(f"# close failed: {exc}", file=sys.stderr)
            wan_bytes = runtime.wan_bytes()
            gc_watch.collect()
            for text in workloads.cold_script(
                sites, closed, workload.cold_queries
            ):
                ask(text)
            for _ in range(workload.hit_repeats):
                for text in dashboard:
                    ask(text)

        # -- the served phase: the harness is the client --------------------
        hot = workloads.hot_set(sites)
        for text in hot:  # warmed, untimed: every served answer is a hit
            runtime.query(text)
        emit("serving", endpoint=endpoint, hot=hot, cpu=cpu)
        sys.stdin.readline()
        if spec["traced"]:
            gc_watch.uninstall()
            ledger.uninstall()

        # -- facts for the gates, public stats for the ledger ---------------
        total = runtime.query("SELECT TOTAL FROM ALL").result.scalar
        hot_answers = {
            text: runtime.query(text).result.to_wire() for text in hot
        }
        standing_mismatches = []
        for text, subscription in standing:
            update = subscription.latest()
            runtime.planner.invalidate_cache()
            cold = runtime.query(text).result.to_wire()
            if update is None or update.result.to_wire() != cold:
                standing_mismatches.append(text)
        engine = runtime.engine.stats()
        registry = runtime.planner.subscriptions
        cache = runtime.planner.cache
        entries = runtime.db.stats()["entries"]
        if workload.durable:
            stored_bytes = engine["segment_bytes"]
        else:
            stored_bytes = sum(
                entry.tree.estimated_size_bytes()
                for entry in runtime.db.entries()
            )
        report = {
            "setup_s": setup_s,
            "ingest_s": ingest_s,
            "close_s": close_s,
            "cold_s": cold_s,
            "hit_s": hit_s,
            "records": records,
            "attempted": attempted,
            "failed": failed,
            "facts": {
                "wan_bytes": wan_bytes,
                "flowdb.entries": entries,
                "stored_bytes": stored_bytes,
                "answers_digest": digest.hexdigest(),
                "cache_hits": len(hit_s),
                "ops": [len(ingest_s), len(close_s), len(cold_s)],
            },
            "expected_mass": shared["mass"],
            "observed_mass": {
                "packets": total.packets,
                "bytes": total.bytes,
                "flows": total.flows,
            },
            "hot_answers": hot_answers,
            "standing_mismatches": standing_mismatches,
            "stats": {
                "datastore.cache.hits": cache.hits,
                "datastore.cache.misses": cache.misses,
                "flowdb.entries": entries,
                "hierarchy.wan_bytes": runtime.wan_bytes(),
                "storage.segment_bytes": engine["segment_bytes"],
                "storage.segments": engine["segments"],
                "storage.manifest_writes": engine["manifest_writes"],
                "query.routes.cloud": runtime.stats.queries_cloud,
                "query.routes.federated": runtime.stats.queries_federated,
                "query.subscriptions.delta_refreshes": (
                    registry.delta_refreshes
                ),
                "query.subscriptions.rebuilds": registry.rebuilds,
                "query.subscriptions.shipped_bytes": (
                    registry.shipped_bytes_total
                ),
                "serve.queue_peak": max(
                    node.queue_peak for node in plane.nodes.values()
                ),
                "serve.rejected_429": plane.admission.rejected + sum(
                    node.backpressure_rejections
                    for node in plane.nodes.values()
                ),
                "serve.server_errors": plane.server_errors,
            },
        }
        if spec["traced"]:
            executes = [
                span[6] - span[5]
                for span in ledger.spans
                if span[3] == "serve.execute_on_node"
            ]
            report["ledger"] = {
                "totals": ledger.totals(),
                "counters": ledger.counters(),
                "paths": ledger.paths(),
                "execute_on_node_s_p50": (
                    statistics.median(executes) if executes else 0.0
                ),
                "gc": {
                    "pause_s": gc_watch.pause_s,
                    "max_pause_s": gc_watch.max_pause_s,
                    "gen2_collections": gc_watch.gen2_collections,
                },
            }
            if spec["spans"]:
                report["spans"] = ledger.span_rows("worker")
        return report
    finally:
        ledger.uninstall()
        if plane is not None:
            plane.close()
        runtime.shutdown()
        runtime.engine.close()


def main(spec: dict) -> None:
    workload = workloads.scaled(
        workloads.WORKLOADS[spec["workload"]], spec["scale"]
    )
    shared: dict = {}  # the generated trace, built by the first lap
    for lap in range(spec["laps"]):
        emit("lap", **run_lap(spec, lap, workload, shared))
    emit(
        "exit",
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
