"""The per-layer ledger: spans recorded from outside the program.

In a traced pass the benchmark wraps the public entry points of each
``repro.*`` package (the table in :data:`ENTRY_POINTS`) with timing
wrappers.  A wrapper is installed at the name the caller looks up — the
class attribute for a method, every ``repro`` module that imported the
name for a function — and removed again by :meth:`Ledger.uninstall`;
nothing under ``src/`` knows it is being measured.

A span is ``(id, parent, op, name, thread, start, end, self_s)``.
``parent`` is the enclosing span on the same thread (a per-thread
stack), ``op`` the id of the root span that caused it (or the serving
plane's own trace id where the entry point receives one), and
``self_s`` the span's duration minus the part its child spans cover, so
along one path the self times sum to the root's duration by
construction.  An ``async def`` entry point is stepped by hand: only
the time its coroutine actually runs on the loop counts as busy, the
time it sits suspended on a socket does not.

No per-record function is wrapped: every entry point here is called
once per batch, per tree or per request.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, module, class or None, attribute) — the layer is the
#: span name's first component and is the ``repro.<package>`` measured
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("runtime.ingest", "repro.runtime.runtime", "HierarchyRuntime", "ingest"),
    ("runtime.close_epoch", "repro.runtime.runtime", "HierarchyRuntime",
     "close_epoch"),
    ("runtime.query", "repro.runtime.runtime", "HierarchyRuntime", "query"),
    ("datastore.ingest", "repro.datastore.store", "DataStore", "ingest"),
    ("datastore.close_epoch", "repro.datastore.store", "DataStore",
     "close_epoch"),
    ("datastore.export_summaries", "repro.datastore.store", "DataStore",
     "export_summaries"),
    ("datastore.combine_flowtrees", "repro.datastore.recombine", None,
     "combine_flowtrees"),
    ("core.ingest_many", "repro.core.flowtree", "FlowtreePrimitive",
     "ingest_many"),
    ("core.summary", "repro.core.flowtree", "FlowtreePrimitive", "summary"),
    ("core.combine", "repro.core.flowtree", "FlowtreePrimitive", "combine"),
    ("flows.add_many", "repro.flows.tree", "Flowtree", "add_many"),
    ("flows.compress", "repro.flows.tree", "Flowtree", "compress"),
    ("flows.merge", "repro.flows.tree", "Flowtree", "merge"),
    ("flows.copy", "repro.flows.tree", "Flowtree", "copy"),
    ("flows.diff", "repro.flows.tree", "Flowtree", "diff"),
    ("flows.to_dict", "repro.flows.tree", "Flowtree", "to_dict"),
    ("flows.from_dict", "repro.flows.tree", "Flowtree", "from_dict"),
    ("hierarchy.transfer", "repro.hierarchy.network", "NetworkFabric",
     "transfer"),
    ("flowdb.insert", "repro.flowdb.db", "FlowDB", "insert"),
    ("flowdb.merged_tree", "repro.flowdb.db", "FlowDB", "merged_tree"),
    ("storage.append_summary", "repro.storage.engine", "MemoryEngine",
     "append_summary"),
    ("storage.seal_epoch", "repro.storage.engine", "MemoryEngine",
     "seal_epoch"),
    ("storage.write_manifest", "repro.storage.engine", "MemoryEngine",
     "write_manifest"),
    ("storage.append_summary", "repro.storage.segment", "SegmentLogEngine",
     "append_summary"),
    ("storage.seal_epoch", "repro.storage.segment", "SegmentLogEngine",
     "seal_epoch"),
    ("storage.write_manifest", "repro.storage.segment", "SegmentLogEngine",
     "write_manifest"),
    ("query.plan", "repro.query.planner", "FederatedQueryPlanner", "plan"),
    ("query.execute", "repro.query.planner", "FederatedQueryPlanner",
     "execute"),
    ("query.on_epoch_closed", "repro.query.planner", "FederatedQueryPlanner",
     "on_epoch_closed"),
    ("query.subscriptions.on_epoch_closed", "repro.query.subscriptions",
     "SubscriptionRegistry", "on_epoch_closed"),
    ("flowql.parse", "repro.flowql.parser", None, "parse"),
    ("flowql.apply_operator", "repro.flowql.executor", None,
     "apply_operator"),
    ("serve.read_request", "repro.serve.http11", None, "read_request"),
    ("serve.admit", "repro.serve.admission", "AdmissionController", "admit"),
    ("serve.node_hop", "repro.serve.http11", "HTTPConnectionPool",
     "request"),
    ("serve.execute_on_node", "repro.serve.plane", "ServePlane",
     "execute_on_node"),
    ("serve.encode_outcome", "repro.serve.wire", None, "encode_outcome"),
    ("serve.response_bytes", "repro.serve.http11", None, "response_bytes"),
    ("client.query", "repro.client", "FlowQLClient", "query"),
    ("client.decode_outcome", "repro.serve.wire", None, "decode_outcome"),
)

#: spans that start a path; they also report ``total_s``
ROOTS = ("runtime.ingest", "runtime.close_epoch", "runtime.query",
         "client.query")

#: work counted where it happens: span name -> (counter, f(args, result))
_COUNTS: Dict[str, Tuple[str, Callable]] = {
    "flows.compress": (
        "flows.compressions", lambda args, removed: 1 if removed else 0
    ),
    "flows.merge": (
        "flows.merge.nodes_in", lambda args, _: args[1].node_count
    ),
    "flows.copy": ("flows.copy.nodes", lambda args, _: args[0].node_count),
    "hierarchy.transfer": (
        "hierarchy.transfer.bytes", lambda args, record: record.size_bytes
    ),
}

#: entry points handed the serving plane's trace id: that id is the op
_OP_OF: Dict[str, Callable] = {
    "serve.execute_on_node": lambda args, kwargs: args[3],
    "serve.node_hop": lambda args, kwargs: (kwargs.get("headers") or {}).get(
        "X-Repro-Trace"
    ),
}

SPAN_NAMES = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))
COUNTER_NAMES = tuple(counter for counter, _ in _COUNTS.values())


class Ledger:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # -- install / uninstall -------------------------------------------------

    def install(self, layers: Tuple[str, ...]) -> None:
        """Wrap every entry point of the named layers."""
        for name, module_name, class_name, attr in ENTRY_POINTS:
            if name.split(".")[0] not in layers:
                continue
            module = importlib.import_module(module_name)
            if class_name is None:
                self._patch_function(name, module, attr)
            else:
                self._patch_method(name, getattr(module, class_name), attr)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        setattr(cls, attr, wrapped)
        self._undo.append(lambda: setattr(cls, attr, raw))

    def _patch_function(self, name: str, module, attr: str) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(name, original)
        # callers that did ``from module import attr`` look the name up
        # in their own namespace; tables hold the function itself
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapped)
                    self._undo.append(
                        lambda h=holder, k=key: setattr(h, k, original)
                    )
                elif isinstance(value, dict):
                    for slot, held in list(value.items()):
                        if held is original:
                            value[slot] = wrapped
                            self._undo.append(
                                lambda d=value, s=slot: d.__setitem__(
                                    s, original
                                )
                            )

    # -- recording -----------------------------------------------------------

    def _state(self) -> tuple:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], threading.get_ident())
            return state

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(name, fn)
        spans, counts, ids = self.spans, self.counts, self._ids
        state_of, perf = self._state, time.perf_counter
        count = _COUNTS.get(name)
        op_of = _OP_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, thread = state_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            if op_of is not None:
                op = op_of(args, kwargs)
            else:
                op = parent[1] if parent else span_id
            frame = [span_id, op, 0.0]  # id, op, seconds inside children
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                if parent:
                    parent[2] += elapsed
                spans.append((
                    span_id, parent[0] if parent else 0, op, name, thread,
                    start, end, elapsed - frame[2],
                ))
            if count is not None:
                counts[count[0]] += count[1](args, result)
            return result

        return wrapper

    def _wrap_async(self, name: str, fn: Callable) -> Callable:
        op_of = _OP_OF.get(name)

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            op = op_of(args, kwargs) if op_of is not None else None
            return await self._drive(name, fn(*args, **kwargs), op)

        return wrapper

    @types.coroutine
    def _drive(self, name: str, coro, op):
        """Step ``coro`` by hand, timing only the steps it runs."""
        perf = time.perf_counter
        span_id = next(self._ids)
        frame = [span_id, span_id if op is None else op, 0.0]
        busy = 0.0
        first = None
        step, value = coro.send, None
        while True:
            stack, thread = self._state()
            stack.append(frame)
            start = perf()
            if first is None:
                first = start
            try:
                yielded = step(value)
            except BaseException as exc:
                end = perf()
                stack.pop()
                self.spans.append((
                    span_id, 0, frame[1], name, thread, first, end,
                    busy + (end - start) - frame[2],
                ))
                if isinstance(exc, StopIteration):
                    return exc.value
                raise
            stack.pop()
            busy += perf() - start
            try:
                value = yield yielded
                step = coro.send
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:
                step, value = coro.throw, exc

    # -- reading -------------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """``name -> [calls, self_s, total_s]`` over every table span."""
        out: Dict[str, List[float]] = {
            name: [0, 0.0, 0.0] for name in SPAN_NAMES
        }
        for span in self.spans:
            row = out[span[3]]
            row[0] += 1
            row[1] += span[7]
            row[2] += span[6] - span[5]
        return out

    def paths(self) -> Dict[str, Dict[str, float]]:
        """``root span -> {span -> self_s}`` over the spans under it.

        One path's values sum to the total duration of its roots.
        """
        links = {span[0]: (span[1], span[3]) for span in self.spans}
        root_of: Dict[int, str] = {}
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            chain = []
            cursor = span[0]
            while cursor not in root_of:
                parent, name = links[cursor]
                if parent == 0:
                    root_of[cursor] = name
                    break
                chain.append(cursor)
                cursor = parent
            root = root_of[cursor]
            for span_id in chain:
                root_of[span_id] = root
            path = out.setdefault(root, defaultdict(float))
            path[span[3]] += span[7]
        return {root: dict(path) for root, path in out.items()}

    def counters(self) -> Dict[str, int]:
        return {name: self.counts.get(name, 0) for name in COUNTER_NAMES}

    def span_rows(self, process: str) -> List[dict]:
        """Every span as a JSON-able row (for ``--trace-out``)."""
        keys = ("id", "parent", "op", "name", "thread", "start", "end",
                "self_s")
        return [
            dict(zip(keys, span), process=process) for span in self.spans
        ]


class GcWatch:
    """Automatic collector pauses seen through ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.max_pause_s = 0.0
        self.gen2_collections = 0
        self._started: Optional[float] = None
        self._manual = False

    def __call__(self, phase: str, info: dict) -> None:
        if self._manual:
            return
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            pause = time.perf_counter() - self._started
            self._started = None
            self.pause_s += pause
            self.max_pause_s = max(self.max_pause_s, pause)
            if info.get("generation") == 2:
                self.gen2_collections += 1

    def collect(self) -> None:
        """A full collection the benchmark asks for: not counted."""
        self._manual = True
        try:
            gc.collect()
        finally:
            self._manual = False

    def install(self) -> None:
        gc.callbacks.append(self)

    def uninstall(self) -> None:
        gc.callbacks.remove(self)
