"""The end-to-end benchmark harness: generator, aggregator and gates.

``python3 benchmarks/e2e/run.py`` (or ``PYTHONPATH=src python -m
benchmarks.e2e``) measures the four workloads of ``workloads.py`` and
prints every metric by name with its unit; it exits non-zero when any
answer is wrong.  See ``README.md`` in this directory for the metric
vocabulary and how a later change cites a number from here.

A run is a few *passes* (fresh ``serve_worker`` processes, so set-up is
paid and timed several times) of a few *laps* each; ``--seconds`` sets
how many laps, each sized to about ``LAP_SECONDS`` of measured work.
Every lap replays the same seed, so the same ops happen in the same
order, and every lap must reproduce the same bytes, entries, hits and
answers.  The box this runs on has two speeds that alternate every few
seconds (a busy sibling hyperthread), so a pooled median lands between
them at random; instead each op's time is its *fastest* over the laps,
and the metrics aggregate those per-op times.  With ``--trace 1`` one
pass runs untraced and one traced: the traced one gives the per-layer
ledger, the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    # never fall back to a ``repro`` installed elsewhere: it would be
    # measured in place of this checkout's
    raise SystemExit(f"benchmarks/e2e: nothing to measure, no {SRC}/repro")
for _entry in (str(SRC), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import workloads  # noqa: E402
from benchmarks.e2e.ledger import ROOTS, SPAN_NAMES, Ledger  # noqa: E402
from repro.client import FlowQLClient  # noqa: E402

CONTRACT_PATH = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".e2e_work"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMOKE_SCALE = 0.05
#: measured work one lap is sized to on the reference box
LAP_SECONDS = 1.25
#: untraced runs set up this many times and report the median
PASSES = 3
#: a traced lap may cost this much more than an untraced one; past it
#: a wrapped entry point is too hot and must leave the table
OVERHEAD_CEILING = 1.15
#: facts every lap of one seed must reproduce exactly
EXACT_FACTS = (
    "wan_bytes", "flowdb.entries", "stored_bytes", "answers_digest",
    "cache_hits", "ops",
)
#: metrics two runs of one seed must reproduce exactly (``--aa``)
EXACT_METRICS = (
    "wan_bytes", "stored_bytes_per_record", "datastore.cache.hits",
    "flows.copy.calls",
)


def load_contract() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units, bounds."""
    contract = json.loads(CONTRACT_PATH.read_text())
    names = [w["name"] for w in contract["workloads"]] + [
        m["name"] for m in contract["end_to_end"] + contract["per_layer"]
    ]
    bad = [name for name in names if not NAME.match(name)]
    if bad or len(set(names)) != len(names):
        raise SystemExit(f"BENCHMARK.json: bad or repeated names {bad}")
    if [w["name"] for w in contract["workloads"]] != list(
        workloads.WORKLOADS
    ):
        raise SystemExit("BENCHMARK.json workloads != workloads.py")
    return contract


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fastest(laps: List[dict], times: Callable[[dict], List[float]]):
    """Each op's fastest time over the laps (ops align by position)."""
    return [min(column) for column in zip(*(times(lap) for lap in laps))]


# -- one pass ----------------------------------------------------------------


def spawn_pass(
    name: str, seed: int, scale: float, laps: int, first_lap: int,
    traced: bool, want_spans: bool,
) -> List[dict]:
    """Run one worker process through its laps; returns their reports.

    ``first_lap`` numbers the pass's laps within the run: a lap's
    number chooses its CPU (see ``workloads.lap_cpu``).
    """
    workload = workloads.scaled(workloads.WORKLOADS[name], scale)
    WORK_DIR.mkdir(exist_ok=True)
    data_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    spec = {
        "workload": name, "seed": seed, "scale": scale, "laps": laps,
        "first_lap": first_lap, "traced": traced, "spans": want_spans,
        "data_dir": data_dir, "spawned_at": time.time(),
    }
    worker = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.serve_worker",
         json.dumps(spec)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        cwd=str(ROOT),
        env={**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{ROOT}"},
    )
    reports = []
    try:
        for _ in range(laps):
            serving = _event(worker, "serving")
            serve = serve_load(
                serving["endpoint"], serving["hot"],
                workload.serve_requests, serving["cpu"], traced, want_spans,
            )
            worker.stdin.write("done\n")
            worker.stdin.flush()
            report = _event(worker, "lap")
            report["serve"] = serve
            report["traced"] = traced
            reports.append(report)
        reports[0]["rss_mb"] = _event(worker, "exit")["rss_mb"]
    finally:
        worker.stdin.close()
        try:
            worker.wait(timeout=60)
        except subprocess.TimeoutExpired:
            worker.kill()
            worker.wait()
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still has its directory there
            pass
    if worker.returncode != 0:
        raise SystemExit(f"worker exited with {worker.returncode}")
    return reports


def _event(worker: subprocess.Popen, event: str) -> dict:
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"worker ended before its {event!r} event")
    body = json.loads(line)
    if body.get("event") != event:
        raise SystemExit(f"worker sent {body.get('event')!r}, not {event!r}")
    return body


def serve_load(
    endpoint: str, hot: List[str], requests: int, cpu: Optional[int],
    traced: bool, want_spans: bool,
) -> dict:
    """The HTTP closed loop: one caller that waits for each reply.

    One keep-alive ``FlowQLClient`` connection sends a sequence of
    ``requests`` queries over the hot set.  The caller runs on
    the worker's CPU (``cpu``): caller and server are never busy at the
    same moment, and on one CPU a hand-over is a context switch, not a
    wake-up of an idle (or busy) neighbour core.  The hot set was
    fetched once before timing; those first answers are the ones
    compared with the worker's in-process ones, and every later reply
    is compared with them.
    """
    ledger = Ledger()
    latency: List[float] = []  # a failed request has no latency
    failed = 0
    perf = time.perf_counter
    workloads.pin(cpu)
    if traced:
        ledger.install(("client",))
    try:
        with FlowQLClient(endpoint=endpoint, client_id="caller") as client:
            expected = {text: client.query(text).result for text in hot}
            started_at = perf()
            for number in range(requests):
                text = hot[number % len(hot)]
                try:
                    started = perf()
                    outcome = client.query(text)
                    elapsed = perf() - started
                except Exception:  # noqa: BLE001 - non-200, transport
                    failed += 1
                    continue
                if outcome.is_degraded or outcome.result != expected[text]:
                    failed += 1
                else:
                    latency.append(elapsed)
            wall_s = perf() - started_at
    finally:
        ledger.uninstall()
        workloads.pin(None)
    out = {
        "latency_s": latency,
        "wall_s": wall_s,
        "attempted": requests,
        "failed": failed,
        "http_answers": {
            text: result.to_wire() for text, result in expected.items()
        },
    }
    if traced:
        out["totals"] = ledger.totals()
        if want_spans:
            out["spans"] = ledger.span_rows("harness")
    return out


# -- aggregation -------------------------------------------------------------


def measured_s(laps: List[dict]) -> float:
    """One lap's measured work, every op at its fastest over the laps."""
    return sum(
        sum(fastest(laps, lambda lap, key=key: lap[key]))
        for key in ("ingest_s", "close_s", "cold_s", "hit_s")
    ) + sum(fastest(laps, lambda lap: lap["serve"]["latency_s"]))


def end_to_end(
    passes: List[List[dict]],
) -> Dict[str, Tuple[float, int]]:
    """``metric -> (value, n)`` from the untraced laps.

    Timings aggregate each op's fastest time over the laps; set-up and
    peak memory are the median over the passes (processes).
    """
    laps = [lap for reports in passes for lap in reports]
    first = laps[0]
    ingest = fastest(laps, lambda lap: lap["ingest_s"])
    close = fastest(laps, lambda lap: lap["close_s"])
    cold = fastest(laps, lambda lap: lap["cold_s"])
    hit = fastest(laps, lambda lap: lap["hit_s"])
    latency = fastest(laps, lambda lap: lap["serve"]["latency_s"])
    records = first["records"]
    return {
        "setup_s": (
            statistics.median(reports[0]["setup_s"] for reports in passes),
            len(passes),
        ),
        "ingest_records_per_s": (records / sum(ingest), len(ingest)),
        "close_ms_p50": (1e3 * percentile(close, 0.50), len(close)),
        "close_ms_p75": (1e3 * percentile(close, 0.75), len(close)),
        "pipeline_records_per_s": (
            records / (sum(ingest) + sum(close)), len(ingest) + len(close)
        ),
        "wan_bytes": (first["facts"]["wan_bytes"], 1),
        "stored_bytes_per_record": (
            first["facts"]["stored_bytes"] / records, 1
        ),
        "query_cold_ms_p50": (1e3 * percentile(cold, 0.50), len(cold)),
        "query_cold_ms_p90": (1e3 * percentile(cold, 0.90), len(cold)),
        "query_cold_per_s": (len(cold) / sum(cold), len(cold)),
        "query_hit_us_p50": (1e6 * percentile(hit, 0.50), len(hit)),
        # the closed loop's wall, assembled from each request's fastest
        # time: the caller is always waiting for exactly one reply
        "serve_queries_per_s": (len(latency) / sum(latency), len(latency)),
        "serve_ms_p50": (1e3 * percentile(latency, 0.50), len(latency)),
        "serve_ms_p99": (1e3 * percentile(latency, 0.99), len(latency)),
        "peak_rss_mb": (
            statistics.median(reports[0]["rss_mb"] for reports in passes),
            len(passes),
        ),
    }


def dominant_share(kind: str, paths: Dict[str, Dict[str, float]]) -> float:
    """The share of its path that a workload's predicted layer took.

    ``ingest`` / ``close``: that root over the write path; ``assembly``:
    ``flowdb.merged_tree`` + ``datastore.combine_flowtrees`` + their
    ``flows.*`` children over in-process query wall; ``serve``: what is
    left of client latency once the planner's own work under the
    executor hop is taken out, i.e. ``serve.*`` + ``client.*``.
    """
    def total(root: str) -> float:
        return sum(paths.get(root, {}).values())

    if kind in ("ingest", "close"):
        write = total("runtime.ingest") + total("runtime.close_epoch")
        return total(
            "runtime.ingest" if kind == "ingest" else "runtime.close_epoch"
        ) / write
    if kind == "assembly":
        assembly = sum(
            seconds
            for span, seconds in paths["runtime.query"].items()
            if span.startswith("flows.")
            or span in ("flowdb.merged_tree", "datastore.combine_flowtrees")
        )
        return assembly / total("runtime.query")
    planner = sum(
        seconds
        for span, seconds in paths.get("serve.execute_on_node", {}).items()
        if not span.startswith("serve.")
    )
    return 1.0 - planner / total("client.query")


def per_layer(
    name: str, plain: List[dict], traced: List[dict]
) -> Dict[str, Tuple[float, int]]:
    """``metric -> (value, n)``: the ledger of the traced laps.

    Counts come from the first traced lap (they repeat exactly); a
    span's seconds are its fastest lap's.
    """
    n = len(traced)
    merged = []  # per traced lap: worker spans + the harness's client spans
    for lap in traced:
        totals = dict(lap["ledger"]["totals"])
        for span, row in lap["serve"]["totals"].items():
            if row[0]:
                totals[span] = row
        merged.append(totals)
    out: Dict[str, Tuple[float, int]] = {}
    for span in SPAN_NAMES:
        out[f"{span}.calls"] = (merged[0][span][0], 1)
        out[f"{span}.self_s"] = (min(t[span][1] for t in merged), n)
        if span in ROOTS:
            total_s = min(t[span][2] for t in merged)
            out[f"{span}.total_s"] = (total_s, n)
            out[f"trace.root_self_share.{span}"] = (
                out[f"{span}.self_s"][0] / total_s if total_s else 0.0, n
            )
    first = traced[0]
    for counter, value in first["ledger"]["counters"].items():
        out[counter] = (value, 1)
    for counter, value in first["stats"].items():
        out[counter] = (value, 1)
    hits = first["stats"]["datastore.cache.hits"]
    out["datastore.cache.hit_ratio"] = (
        hits / max(1, hits + first["stats"]["datastore.cache.misses"]), 1
    )
    latency = fastest(traced, lambda lap: lap["serve"]["latency_s"])
    out["serve.transport_ms_p50"] = (
        1e3 * (
            percentile(latency, 0.50)
            - min(lap["ledger"]["execute_on_node_s_p50"] for lap in traced)
        ),
        len(latency),
    )
    gc = [lap["ledger"]["gc"] for lap in traced]
    out["python.gc.pause_s"] = (min(g["pause_s"] for g in gc), n)
    out["python.gc.gen2_collections"] = (gc[0]["gen2_collections"], 1)
    out["python.gc.max_pause_ms"] = (
        1e3 * min(g["max_pause_s"] for g in gc), n
    )
    out["trace.overhead_ratio"] = (measured_s(traced) / measured_s(plain), n)
    paths = dict(first["ledger"]["paths"])
    paths["client.query"] = {
        span: row[1] for span, row in first["serve"]["totals"].items()
    }
    out["trace.dominant_share"] = (
        dominant_share(workloads.WORKLOADS[name].dominant, paths), 1
    )
    return out


def check_gates(laps: List[dict]) -> List[Tuple[str, bool, str]]:
    """The correctness gates over every lap of one run."""
    gates = []
    for index, lap in enumerate(laps):
        gates.append((
            f"root_mass[{index}]",
            lap["expected_mass"] == lap["observed_mass"],
            f"trace {lap['expected_mass']} vs "
            f"TOTAL FROM ALL {lap['observed_mass']}",
        ))
        gates.append((
            f"standing_equals_cold[{index}]",
            not lap["standing_mismatches"],
            f"{lap['standing_mismatches']}",
        ))
        gates.append((
            f"http_equals_in_process[{index}]",
            lap["serve"]["http_answers"] == lap["hot_answers"],
            "hot set fetched over HTTP vs runtime.query in the worker",
        ))
    first = laps[0]["facts"]
    for fact in EXACT_FACTS:
        seen = [lap["facts"][fact] for lap in laps]
        gates.append((
            f"laps_identical[{fact}]",
            all(value == first[fact] for value in seen),
            f"{seen}",
        ))
    copies = [
        lap["ledger"]["totals"]["flows.copy"][0]
        for lap in laps
        if lap["traced"]
    ]
    gates.append((
        "laps_identical[flows.copy.calls]", len(set(copies)) <= 1,
        f"{copies}",
    ))
    return gates


# -- one run of one workload -------------------------------------------------


def measure(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool,
    trace_out: Optional[str], contract: dict,
) -> dict:
    """The passes and laps of one workload; its metrics and gates."""
    scale = SMOKE_SCALE if smoke else 1.0
    want_spans = trace and trace_out is not None
    # one untraced pass and one traced, or PASSES untraced ones
    kinds = [False, True] if trace else [False] * (1 if smoke else PASSES)
    laps_each = 1 if smoke else max(
        1, round(seconds / LAP_SECONDS / len(kinds))
    )
    passes = [
        spawn_pass(
            name, seed, scale, laps_each, index * laps_each, traced,
            want_spans,
        )
        for index, traced in enumerate(kinds)
    ]
    laps = [lap for reports in passes for lap in reports]
    plain = [lap for lap in laps if not lap["traced"]]
    traced_laps = [lap for lap in laps if lap["traced"]]
    if trace:
        metrics = per_layer(name, plain, traced_laps)
        expected = contract["per_layer"]
    else:
        metrics = end_to_end(passes)
        expected = contract["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in expected}
    if set(metrics) != set(units):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    gates = check_gates(laps)
    attempted = len(gates) + sum(
        lap["attempted"] + lap["serve"]["attempted"] for lap in laps
    )
    failed = sum(1 for _, ok, _ in gates if not ok) + sum(
        lap["failed"] + lap["serve"]["failed"] for lap in laps
    )
    if want_spans:
        with open(trace_out, "a") as handle:
            for index, lap in enumerate(traced_laps):
                for row in lap["spans"] + lap["serve"]["spans"]:
                    row.update(workload=name, seed=seed, traced_lap=index)
                    handle.write(json.dumps(row) + "\n")
    return {
        "workload": name,
        "seed": seed,
        "passes": len(passes),
        "laps": len(laps),
        "lap_s": measured_s(plain),
        "attempted": attempted,
        "failed": failed,
        "gates": gates,
        "facts": laps[0]["facts"],
        "rows": [
            (metric, units[metric], n, value)
            for metric, (value, n) in metrics.items()
        ],
        "paths": traced_laps[0]["ledger"]["paths"] if trace else None,
    }


def show(result: dict) -> None:
    """Every metric by name with its unit; the contract's line last."""
    print(
        f"workload={result['workload']} seed={result['seed']} "
        f"passes={result['passes']} laps={result['laps']} "
        f"lap_s={result['lap_s']:.2f} "
        f"ops_attempted={result['attempted']} "
        f"ops_failed={result['failed']} "
        f"answers_digest={result['facts']['answers_digest'][:16]}"
    )
    for metric, unit, n, value in result["rows"]:
        print(
            f"  {result['workload']:<15} {result['seed']:<6} "
            f"{metric:<42} {unit:<6} n={n:<6} {value:.6g}"
        )
    for root, spans in (result["paths"] or {}).items():
        if len(spans) == 1:
            continue  # an entry point with no wrapped callee: see its row
        total = sum(spans.values())
        parts = ", ".join(
            f"{span} {100 * seconds / total:.0f}%"
            for span, seconds in sorted(
                spans.items(), key=lambda item: -item[1]
            )
            if total and seconds / total >= 0.02
        )
        print(f"  path {root}: {total:.3f} s = {parts}")
    for gate, ok, detail in result["gates"]:
        if not ok:
            print(f"  GATE FAILED {gate}: {detail}")
    metrics = {row[0]: row[3] for row in result["rows"]}
    overhead = metrics.get("trace.overhead_ratio")
    if overhead is not None and overhead > OVERHEAD_CEILING:
        print(
            f"  WARNING trace.overhead_ratio {overhead:.3f} > "
            f"{OVERHEAD_CEILING}: a wrapped entry point is too hot"
        )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, unit, _, value in result["rows"]
        },
    }))


# -- repeatability -----------------------------------------------------------


def run_aa(args, names: List[str], contract: dict) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    sets: List[Dict[Tuple[str, str], float]] = []
    for index in (1, 2):
        values: Dict[Tuple[str, str], float] = {}
        for name in names:
            for trace in ("0", "1"):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", trace,
                ] + (["--smoke"] if args.smoke else [])
                done = subprocess.run(
                    command, capture_output=True, text=True, cwd=str(ROOT)
                )
                if done.returncode != 0:
                    print(done.stdout + done.stderr)
                    print(f"A/A set {index}: {name} --trace {trace} failed")
                    return 1
                last = json.loads(done.stdout.strip().splitlines()[-1])
                for metric, body in last["metrics"].items():
                    values[(name, metric)] = body["value"]
                print(f"# A/A set {index}: {name} --trace {trace} done")
        sets.append(values)
    worst = False
    print(f"{'workload':<15} {'metric':<26} {'set 1':>12} {'set 2':>12} "
          f"{'diff':>8} {'bound':>6}")
    for (name, metric), first in sets[0].items():
        second = sets[1][(name, metric)]
        if metric in EXACT_METRICS:
            verdict = "ok" if first == second else "DIFFERS"
            worst |= first != second
            print(f"{name:<15} {metric:<26} {first:>12.6g} {second:>12.6g} "
                  f"{'exact':>8} {verdict:>6}")
        elif metric in bounds:
            diff = abs(second - first) / first
            flag = "" if diff <= bounds[metric] else "  EXCEEDS"
            worst |= diff > bounds[metric]
            print(f"{name:<15} {metric:<26} {first:>12.6g} {second:>12.6g} "
                  f"{100 * diff:>7.2f}% {100 * bounds[metric]:>5.0f}%{flag}")
    return int(worst)


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, per-layer metrics only")
    parser.add_argument("--traced", action="store_true",
                        help="the untraced run, then the traced run")
    parser.add_argument("--trace-out", help="append every span here (JSONL)")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice, compare to the bounds")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 scale, one lap: checks the gates only")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    print(
        f"# benchmarks.e2e python={platform.python_version()} "
        f"platform={platform.platform()} kernel={platform.release()} "
        f"nproc={os.cpu_count()}"
    )
    if args.aa:
        return run_aa(args, names, contract)
    modes = [False, True] if args.traced else [bool(args.trace)]
    failed = 0
    for name in names:
        for trace in modes:
            result = measure(
                name, args.seed, args.seconds, trace, args.smoke,
                args.trace_out, contract,
            )
            show(result)
            failed += result["failed"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
