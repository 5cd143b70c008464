#!/usr/bin/env python
"""The gate table: what every drill row must satisfy, stated once.

``TABLE`` maps a bench to the tier-1 test that owns the identity the
drill exercises under load and to its gates ``(case glob, metric glob,
kind, bound)`` — first match wins, no match means ``info``.  The drill
is ``benchmarks/bench_<bench>.py``: ``measure(**size) -> rows`` and
``SIZES`` (``SIZES[0]`` is what CI re-runs; every size is committed, so
a gate naming a larger size reads fresh rows only under ``--write``).
``benchmarks/conftest.py`` defines the row schema and the kinds: ``exact``
equals the committed row (and ``bound``, when given); ``ratio`` equals it
and is >= ``bound``; ``floor`` is wall-time-derived, never committed, and
>= ``bound``; ``info`` is printed only.

```bash
python benchmarks/check_regression.py               # committed rows hold, and a CI-size re-run reproduces them
python benchmarks/check_regression.py --only serve  # one drill
python benchmarks/check_regression.py --write       # every size, then rewrite BENCH_results.json
```

Exit status: 0 every gate holds, 1 a gate failed, 2 the committed file
is missing or does not parse against the row schema.  No timing is
committed: performance claims go through ``benchmarks/e2e`` only.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from fnmatch import fnmatchcase
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT):  # script-mode convenience
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.conftest import RESULTS_PATH, ROW_FIELDS, report  # noqa: E402

COMMITTED_KINDS = ("exact", "ratio")


def zero(case, *metrics):
    return tuple((case, metric, "exact", 0) for metric in metrics)


TABLE = {
    "faults": (
        "tests/test_faults.py::TestRuntimeRecovery"
        "::test_zero_fault_plan_changes_nothing",
        (
            ("*", "delivered_mass_pct", "exact", 100.0),
            *zero("*", "pending_exports"),
            # the fault machinery costs nothing when no fault fires:
            # drop=0 moves the golden trace's WAN volume and wastes none
            ("drop=0", "wan_bytes", "exact", 707_616),
            *zero("drop=0", "wasted_bytes", "retried_bytes",
                  "transfer_failures", "recovery_lag_epochs"),
            ("*", "*", "exact", None),
        ),
    ),
    "elastic": (
        "tests/test_elastic.py::TestMassConservationProperty"
        "::test_root_mass_conserved_across_reconfig_sequences",
        (
            *zero("*", "lost_flows", "pending_*"),
            ("*", "generation", "exact", 5),
            ("*", "ops_applied", "exact", 5),
            # a clean fabric migrates live mass synchronously
            ("drop=0", "migrated_bytes", "exact", 798_984),
            *zero("drop=0", "recovery_lag_epochs"),
            ("*", "op_ms", "info", None),
            ("*", "*", "exact", None),
        ),
    ),
    "subscribe": (
        "tests/test_subscriptions.py::TestDeltaIdentity"
        "::test_identical_after_every_close",
        (
            *zero("*", "identity_mismatches", "rebuilds"),
            ("8x8", "speedup_bytes", "ratio", 2.0),
            ("8x8", "speedup_ms", "floor", 2.0),
            ("16x16", "speedup_bytes", "ratio", 5.0),
            ("16x16", "speedup_ms", "floor", 5.0),
            ("*", "*_ms_total", "info", None),
            ("*", "*", "exact", None),
        ),
    ),
    "serve": (
        "tests/test_serve.py::TestServedAnswerIdentity"
        "::test_federated_drilldown_identical",
        (
            ("1200x5/storm", "clients", "exact", 1200),
            ("*/storm", "clients", "exact", None),
            *zero("*/storm", "incomplete", "server_errors",
                  "client_errors", "bad_retry_after"),
            *zero("*/identity", "identity_mismatches"),
            *zero("*/shedding", "admitted_wrong", "bad_retry_after"),
            ("*/shedding", "*", "exact", None),
        ),
    ),
}


def gate_for(bench: str, case: str, metric: str):
    for case_glob, metric_glob, kind, bound in TABLE[bench][1]:
        if fnmatchcase(case, case_glob) and fnmatchcase(metric, metric_glob):
            return kind, bound
    return "info", None


def load(path: Path) -> list:
    """The committed rows; ``ValueError`` unless each is a committed-kind
    row of the schema for a bench of the table."""
    document = json.loads(path.read_text())
    if document["schema"] != list(ROW_FIELDS):
        raise ValueError(f"schema {document['schema']} != {ROW_FIELDS}")
    rows = [tuple(row) for row in document["rows"]]
    for row in rows:
        if not (
            len(row) == len(ROW_FIELDS)
            and all(isinstance(field, str) for field in row[:4])
            and isinstance(row[4], int)
            and isinstance(row[5], (int, float))
            and row[6] in COMMITTED_KINDS
            and row[0] in TABLE
        ):
            raise ValueError(f"not a committed {ROW_FIELDS} row: {row}")
    return rows


def measure(bench: str, every_size: bool):
    """Run the drill and print its rows, in the full schema with kinds
    from the table; ``None`` when it cannot run here."""
    module = importlib.import_module(f"benchmarks.bench_{bench}")
    rows = []
    for size in module.SIZES if every_size else module.SIZES[:1]:
        produced = module.measure(**size)
        if produced is None:
            print(f"note: {bench} cannot run here; skipped")
            return None
        rows += [
            (bench, case, metric, unit, n, value,
             gate_for(bench, case, metric)[0])
            for case, metric, unit, n, value in produced
        ]
    report(bench, [row[1:] for row in rows], columns=ROW_FIELDS[1:])
    return rows


def check(bench: str, rows, stored) -> list:
    """The one comparer: why ``rows`` fail the bench's gates against
    its ``stored`` rows (empty when they hold)."""
    committed = {row[:3]: row for row in stored}
    problems = []
    for row in rows:
        _, case, metric, _, _, value, kind = row
        gate_kind, bound = gate_for(bench, case, metric)
        if kind != gate_kind:
            why = f"the table says {gate_kind!r}"
        elif kind in COMMITTED_KINDS and row != committed.get(row[:3]):
            why = f"committed row is {committed.get(row[:3])} (--write?)"
        elif kind == "exact" and bound is not None and value != bound:
            why = f"must equal {bound}"
        elif kind in ("ratio", "floor") and value < bound:
            why = f"must be >= {bound}"
        else:
            continue
        problems.append(f"{' '.join(map(str, row))}: {why}")
    cases = {row[1] for row in rows}
    seen = {row[:3] for row in rows}
    problems += [
        f"{' '.join(map(str, row))}: committed but no longer produced"
        for row in stored
        if row[1] in cases and row[:3] not in seen
    ]
    # a gate that names one committed row outright requires that row
    problems += [
        f"{bench} {case} {metric}: gated but not committed"
        for case, metric, kind, _ in TABLE[bench][1]
        if kind in COMMITTED_KINDS
        and not set("*?[") & set(case + metric)
        and (bench, case, metric) not in committed
    ]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=list(TABLE))
    parser.add_argument("--write", action="store_true",
                        help="run every size and rewrite the committed rows")
    args = parser.parse_args(argv)

    try:
        stored = load(RESULTS_PATH)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        if not args.write:
            print(f"cannot read committed rows {RESULTS_PATH}: {exc}")
            return 2
        stored = []
    problems, keep = [], []
    for bench in TABLE:
        mine = [row for row in stored if row[0] == bench]
        if args.only in (None, bench):
            if not args.write:
                problems += check(bench, mine, mine)
            fresh = measure(bench, args.write)
            if fresh is not None:
                if args.write:
                    mine = [r for r in fresh if r[6] in COMMITTED_KINDS]
                problems += check(bench, fresh, mine)
        keep += mine
    for problem in dict.fromkeys(problems):
        print(f"REGRESSION: {problem}")
    if problems:
        return 1
    if args.write:
        RESULTS_PATH.write_text(
            '{"schema": %s,\n "rows": [\n%s\n]}\n' % (
                json.dumps(ROW_FIELDS),
                ",\n".join("  " + json.dumps(row) for row in keep),
            )
        )
        print(f"wrote {RESULTS_PATH}")
    print("OK: every gate holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
