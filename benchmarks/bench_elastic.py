"""Drill: live reconfiguration under traffic — cost, correctness, recovery.

The paper's Sec. V.A self-adaptation claim, measured.  A scripted
reconfiguration storm — ``site_join``, live-mass ``site_leave``,
``level_split``, ``level_merge``, ``migrate_store`` — runs between
epoch closes of a continuously-ingesting tiered hierarchy, once on a
clean fabric and once under a 0.3-drop :class:`~repro.faults.FaultPlan`.
Deterministic rows, gated in ``check_regression.py``:

* **mass conservation** — after the recovery closes drain every parked
  export and migration, the root holds exactly the ingested flow count
  at *both* drop rates (``lost_flows`` = 0: reconfiguration is delayed,
  never lossy) and the pending ledgers are empty;
* **migration accounting** — live summary migrations move a nonzero,
  ledger-tracked byte volume, synchronously on the clean fabric;
* **versioning** — every op bumps the topology generation exactly once
  (``generation_after`` per op), and the query issued after each op's
  close answers from the *new* topology.

Wall-ms per op is an ``info`` row (drain + migrate + resync, dominated
by summary serialization).
"""

from __future__ import annotations

import time

from benchmarks.conftest import rows
from repro.faults import FaultPlan
from repro.runtime.config import LevelConfig
from repro.runtime.presets import tiered_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

SIZES = ({"flows_per_epoch": 1500},)
SITES = ("east/r1", "east/r2", "west/r3")
#: every trace label the scenario will ever ingest under
TRACE_LABELS = SITES + ("east/r4",)
DROP_RATES = (0.0, 0.3)
TRACE_SEED = 2019
FAULT_SEED = 2019
MAX_RECOVERY_CLOSES = 12


def _ingest(runtime, generator, epoch, flows, origin=None):
    """One epoch into every current ingest site; returns flows fed."""
    sites = runtime.ingest_sites()
    for site in sites:
        label = (origin or {}).get(site, site)
        runtime.ingest(site, generator.epoch(label, epoch))
    return flows * len(sites)


def run_scenario(flows_per_epoch: int, drop: float) -> list:
    """The scripted reconfiguration storm over a live tiered runtime.

    Each step ingests a full epoch, applies one reconfiguration op
    (timed), queries the root through the *new* topology, then closes.
    """
    plan = FaultPlan(seed=FAULT_SEED, drop_probability=drop)
    runtime = tiered_runtime(sites=list(SITES), faults=plan)
    generator = TrafficGenerator(
        TrafficConfig(sites=TRACE_LABELS, flows_per_epoch=flows_per_epoch),
        seed=TRACE_SEED,
    )
    split_origin = {
        "east/pod1/r1": "east/r1",
        "east/pod1/r2": "east/r2",
        "east/pod1/r4": "east/r4",
    }
    migrate_origin = {"west/r4": "east/r4"}
    steps = (
        ("site_join",
         lambda now: runtime.site_join("east/r4"), None),
        ("site_leave",
         lambda now: runtime.site_leave("east/r2", now=now), None),
        ("level_split",
         lambda now: runtime.level_split(
             "router", "pod", {"pod1": ["east/r1", "east/r4"]},
             config=LevelConfig(aggregator="flowtree", node_budget=4096),
         ), split_origin),
        ("level_merge",
         lambda now: runtime.level_merge("pod", now=now), None),
        ("migrate_store",
         lambda now: runtime.migrate_store("east/r4", "west", now=now),
         migrate_origin),
    )
    storm = f"drop={drop:g}"
    ledger = runtime.model.ledger
    per_op = {}
    clock = 0.0
    ingested = _ingest(runtime, generator, 0, flows_per_epoch)
    for epoch, (name, apply_op, new_origin) in enumerate(steps, start=1):
        bytes_before = ledger.migrated_bytes
        start = time.perf_counter()
        apply_op(clock + 30.0)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        per_op[f"{storm}/{name}"] = (
            ("generation_after", "generation", runtime.model.generation),
            ("migrated_bytes_delta", "B",
             ledger.migrated_bytes - bytes_before),
            ("op_ms", "ms", round(elapsed_ms, 3)),
        )
        clock += 60.0
        runtime.close_epoch(clock)
        # the op must be visible to queries through the new topology
        runtime.query("SELECT TOTAL FROM ALL")
        ingested += _ingest(
            runtime, generator, epoch, flows_per_epoch,
            origin=new_origin,
        )
    clock += 60.0
    runtime.close_epoch(clock)
    runtime.inject_faults(None)  # lift faults, then drain to quiescence
    lag = 0
    while runtime.pending_exports() and lag < MAX_RECOVERY_CLOSES:
        lag += 1
        clock += 60.0
        runtime.close_epoch(clock)
    mass = runtime.query("SELECT TOTAL FROM ALL").scalar
    per_op[storm] = (
        ("lost_flows", "flows", ingested - mass.flows),
        ("root_mass_flows", "flows", mass.flows),
        ("generation", "generation", runtime.model.generation),
        ("ops_applied", "ops", sum(ledger.op_counts.values())),
        ("migrated_bytes", "B", ledger.migrated_bytes),
        ("migrated_summaries", "summaries", ledger.migrated_summaries),
        ("pending_migrations", "migrations", len(ledger.pending)),
        ("pending_exports", "exports", runtime.pending_exports()),
        ("recovery_lag_epochs", "epochs", lag),
        ("wan_bytes", "B", runtime.wan_bytes()),
    )
    return [
        row
        for case, measured in per_op.items()
        for row in rows(case, ingested, measured)
    ]


def measure(flows_per_epoch: int) -> list:
    return [
        row
        for drop in DROP_RATES
        for row in run_scenario(flows_per_epoch, drop)
    ]
