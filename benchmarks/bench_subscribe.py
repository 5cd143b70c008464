"""Drill: standing queries — delta maintenance vs re-execution per epoch.

The subscription registry's reason to exist is arithmetic: re-running
a standing federated query after every epoch close re-ships the whole
window (cost grows with history), while delta-maintaining the
materialized view ships only the partitions the close just sealed
(cost stays flat).  Two arms over identical traffic:

* **delta** — one runtime holds N standing queries
  (``SUBSCRIBE SELECT ... AT <edge site>`` over the 4-level network
  preset); the registry's own counters give refresh seconds and
  shipped bytes;
* **re-execution** — a second runtime with the result cache disabled
  re-issues the same N queries after every close; wall time and
  ``plan.shipped_bytes`` are summed.

Per epoch and per query the two arms' answers must be
``to_wire``-identical (``identity_mismatches`` = 0) with no
steady-state rebuild — the delta path is only admissible because it is
indistinguishable from re-execution.  The byte columns are
deterministic, so ``speedup_bytes`` is a committed ``ratio``;
``speedup_ms`` is a ``floor``, measured afresh and never committed.
The gates (>= 5x on both axes for 16 queries x 16 epochs, >= 2x on both
for the reduced 8 x 8, the size CI runs) are in ``check_regression.py``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import depth4_runtime, feed, rows

SIZES = (
    {"subscriptions": 8, "epochs": 8},
    {"subscriptions": 16, "epochs": 16},
)
FLOWS_PER_EPOCH = 150

#: per-site standing-query templates; N queries = templates x sites
TEMPLATES = (
    "SELECT TOPK(5) FROM ALL AT {site} BY bytes",
    "SELECT TOTAL FROM ALL AT {site}",
    "SELECT GROUPBY(dst_port, 8) FROM ALL AT {site} BY bytes",
    "SELECT TOPK(3) FROM ALL AT {site} BY packets",
)


def standing_queries(runtime, count):
    """``count`` distinct federated queries over the edge sites."""
    sites = runtime.ingest_sites()
    return [
        TEMPLATES[index % len(TEMPLATES)].format(
            site=sites[(index // len(TEMPLATES)) % len(sites)]
        )
        for index in range(count)
    ]


def measure(subscriptions: int, epochs: int) -> list:
    """Both arms over identical traffic; returns the comparison rows."""
    # one seed epoch in both arms so registration materializes
    delta_rt, reexec_rt = (
        depth4_runtime(FLOWS_PER_EPOCH, 1, retain_partitions=True)
        for _ in range(2)
    )
    try:
        queries = standing_queries(delta_rt, subscriptions)
        registry = delta_rt.planner.subscriptions
        handles = [
            delta_rt.subscribe("SUBSCRIBE " + text) for text in queries
        ]
        seed_bytes = registry.shipped_bytes_total
        seed_seconds = registry.refresh_seconds_total

        reexec_seconds = 0.0
        reexec_bytes = 0
        mismatches = 0
        for epoch in range(1, epochs):
            feed(delta_rt, FLOWS_PER_EPOCH, [epoch])  # refreshes in here
            feed(reexec_rt, FLOWS_PER_EPOCH, [epoch])
            started = time.perf_counter()
            answers = []
            for text in queries:
                # re-execution means re-reading
                reexec_rt.planner.invalidate_cache()
                answers.append(reexec_rt.planner.execute(text))
            reexec_seconds += time.perf_counter() - started
            reexec_bytes += sum(
                outcome.plan.shipped_bytes for outcome in answers
            )
            for handle, outcome in zip(handles, answers):
                update = handle.latest()
                if (
                    update is None
                    or update.result.to_wire()
                    != outcome.result.to_wire()
                ):
                    mismatches += 1
        delta_seconds = registry.refresh_seconds_total - seed_seconds
        delta_bytes = registry.shipped_bytes_total - seed_bytes
        measured = (
            ("identity_mismatches", "answers", mismatches),
            ("rebuilds", "views", registry.rebuilds),
            ("delta_refreshes", "refreshes", registry.delta_refreshes),
            ("delta_bytes_total", "B", delta_bytes),
            ("reexec_bytes_total", "B", reexec_bytes),
            ("speedup_bytes", "x", round(reexec_bytes / delta_bytes, 2)),
            ("speedup_ms", "x", round(reexec_seconds / delta_seconds, 2)),
            ("delta_ms_total", "ms", round(delta_seconds * 1000, 3)),
            ("reexec_ms_total", "ms", round(reexec_seconds * 1000, 3)),
        )
        return rows(
            f"{subscriptions}x{epochs}",
            subscriptions * (epochs - 1),  # refreshes maintained
            measured,
        )
    finally:
        delta_rt.shutdown()
        reexec_rt.shutdown()
