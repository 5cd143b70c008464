"""Drill: delivered mass, retry overhead and recovery lag under link faults.

Table I's "unreliable connections" challenge, measured: the golden
depth-4 trace (``tests/test_golden_trace.py``) runs under seeded
:class:`~repro.faults.FaultPlan` drop rates.  Failed exports retry with
bounded backoff, exhausted exports park in pending queues and redeliver
on later closes, so after the recovery closes drain the queues the root
holds 100% of the fault-free mass at *every* drop rate (DESIGN.md
"Failure model"): reliability is paid for in wasted/retried bytes,
growing with the drop rate, never in lost data — and the drop=0 run
moves exactly the golden WAN volume, because the fault machinery costs
nothing when no fault fires.

Every row is deterministic; ``check_regression.py`` holds the gates.
"""

from __future__ import annotations

from benchmarks.conftest import GOLDEN_BUDGETS, depth4_runtime, rows
from repro.faults import FaultPlan

#: the golden trace; cheap enough that CI re-runs the committed size
SIZES = ({"flows_per_epoch": 3000, "epochs": 3},)
DROP_RATES = (0.0, 0.05, 0.2)
FAULT_SEED = 2019
MAX_RECOVERY_CLOSES = 12


def run_rate(drop: float, flows_per_epoch: int, epochs: int) -> list:
    """One drop rate over the golden trace, driven to full recovery;
    ``(metric, unit, value)`` triples, root mass in bytes first."""
    runtime = depth4_runtime(
        flows_per_epoch,
        epochs,
        faults=FaultPlan(seed=FAULT_SEED, drop_probability=drop),
        **GOLDEN_BUDGETS,
    )
    lag = 0
    while runtime.pending_exports() and lag < MAX_RECOVERY_CLOSES:
        lag += 1
        runtime.close_epoch((epochs + lag) * runtime.epoch_seconds)
    stats = runtime.stats
    runtime.inject_faults(None)  # read the final root state fault-free
    mass = runtime.query("SELECT TOTAL FROM ALL").scalar
    return [
        ("root_mass_bytes", "B", mass.bytes),
        ("root_mass_flows", "flows", mass.flows),
        ("wan_bytes", "B", runtime.wan_bytes()),
        ("wasted_bytes", "B", runtime.fabric.wasted_bytes()),
        ("retried_bytes", "B", stats.retried_bytes),
        ("transfer_failures", "transfers", stats.transfer_failures),
        ("pending_exports", "exports", runtime.pending_exports()),
        ("recovery_lag_epochs", "epochs", lag),
    ]


def measure(flows_per_epoch: int, epochs: int) -> list:
    """Every drop rate; delivered mass is relative to the drop=0 run."""
    records = flows_per_epoch * epochs * 4
    produced = []
    clean_mass = None
    for drop in DROP_RATES:
        measured = run_rate(drop, flows_per_epoch, epochs)
        mass = measured[0][2]
        clean_mass = clean_mass or mass
        measured.append(
            ("delivered_mass_pct", "%", round(100.0 * mass / clean_mass, 3))
        )
        produced += rows(f"drop={drop:g}", records, measured)
    return produced
