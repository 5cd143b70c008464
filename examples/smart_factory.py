#!/usr/bin/env python3
"""Smart factory (Section II.A): the full architecture on one factory.

Drives :class:`~repro.scenarios.FactoryScenario`, which wires the
Figure 2 building blocks end to end:

* machines with degrading mechanics stream vibration/temperature into a
  factory data store (Data Store: collect & aggregate);
* a raw trigger guards each machine: extreme vibration trips the
  controller's emergency-stop rule within the machine deadline
  (Controller: the fast control cycle of Figure 3a);
* the predictive-maintenance application fits trends over epoch
  summaries and schedules maintenance before failures (Application +
  Analytics: the adaptive cycle);
* process mining reviews per-line efficiency from the same summaries.

A control run without the applications shows the win: machines that
fail versus machines that get maintained in time.  Exits 1 if that
story breaks (no baseline failure, or any failure with the apps).

Run:  python examples/smart_factory.py
"""

import sys

from repro.scenarios import FactoryScenario

SIM_HOURS = 6


def main() -> int:
    print(f"== Smart factory: {SIM_HOURS} simulated hours, "
          "6 degrading machines ==\n")

    baseline = FactoryScenario(with_maintenance=False).run(SIM_HOURS)
    print("-- without applications (safety net only) --")
    print(f"  machines failed      : "
          f"{len(baseline.failures)}/{baseline.machines}")
    print(f"  emergency stops fired: {baseline.emergency_stops}")
    for machine_id, failed_at in baseline.failures:
        print(f"    {machine_id} failed at t={failed_at/3600:.1f} h")

    print("\n-- with predictive maintenance + process mining --")
    outcome = FactoryScenario(with_mining=True).run(SIM_HOURS)
    print(f"  machines failed      : "
          f"{len(outcome.failures)}/{outcome.machines}")
    print(f"  maintenance scheduled: {len(outcome.maintenance_decisions)}")
    for decision in outcome.maintenance_decisions[:6]:
        print(
            f"    {decision.machine_id} at t={decision.decided_at/3600:.1f} h"
            f" (predicted failure in {decision.predicted_failure_in/60:.0f}"
            " min)"
        )
    if outcome.line_reports:
        latest = outcome.line_reports[-1]
        print(f"  process mining       : line {latest.line!r} bottleneck is "
              f"{latest.worst_machine} (health {latest.worst_health:.2f})")
    print(f"  partitions stored    : {outcome.partitions_stored} "
          f"({outcome.stored_bytes:,} B)")
    print(f"  lineage records      : {outcome.lineage_records}")
    return 0 if baseline.failures and not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
