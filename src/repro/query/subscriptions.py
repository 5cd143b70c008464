"""Standing FlowQL queries: the planner-side subscription registry.

Dashboards and detectors re-issue the same FlowQL every epoch; the
reactive :class:`~repro.datastore.cache.QueryCache` only helps *within*
an epoch, because each close seals new data.  ``SUBSCRIBE <flowql>``
turns such a query into a *standing* one: the planner materializes its
plan's result once and then **delta-maintains** it on every epoch close
— Merge of the newly sealed partitions into the materialized view
instead of re-reading (and re-shipping) the whole window.

A subscription keeps one :class:`~repro.query.fold.WindowFold` per
window it reads (FROM, and VS when present) — the same object a cold
query advances once and drops.  At each close the registry advances
the kept folds, which read only what was sealed since; the answer is
identical to re-execution because it *is* the cold computation,
continued.  When a fold reports :class:`~repro.query.fold.FoldBroken`
(see that module for the breakers), the topology generation or the
plan's (route, level) moved, or a link died mid-advance, the registry
rebuilds: new folds advanced from empty, kept iff all are resumable.
Ordinary closes never rebuild.

Updates are typed (:class:`SubscriptionUpdate`), sequence-numbered, and
kept in a bounded ring per subscription, which is what makes the
serving plane's long-poll ``/v1/subscribe`` route cursor-resumable: a
reconnecting client replays from its cursor, or resyncs to the latest
snapshot when the gap outgrew the ring (every update carries the full
result, so a resync loses history, never correctness).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)
from collections import deque

from repro.errors import FlowQLPlanningError, WireSchemaError
from repro.flowql.ast import FlowQLQuery
from repro.flowql.executor import FlowQLResult
from repro.query.fold import FoldBroken, WindowFold, answer
from repro.query.plan import ROUTE_FEDERATED, Degradation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.planner import FederatedQueryPlanner

#: ``repro_subscribe_*`` metric family names
ACTIVE = "repro_subscribe_active"
UPDATES_TOTAL = "repro_subscribe_updates_total"
REFRESH_SECONDS = "repro_subscribe_refresh_seconds"
SHIPPED_BYTES_TOTAL = "repro_subscribe_shipped_bytes_total"
REBUILDS_TOTAL = "repro_subscribe_rebuilds_total"

#: refresh-latency buckets: sub-millisecond deltas up to full rebuilds
_REFRESH_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: updates kept per subscription for cursor resume
HISTORY = 64

_subscription_ids = itertools.count(1)

#: update modes
MODE_INIT = "init"
MODE_DELTA = "delta"
MODE_REBUILD = "rebuild"


@dataclass(frozen=True)
class SubscriptionUpdate:
    """One epoch's push for one standing query.

    Every update is a *snapshot*: ``result`` is the query's complete
    current answer (identical to what a cold execution at the same
    boundary returns), so a client that missed updates only needs the
    latest one.  ``mode`` records how the snapshot was produced
    (``init`` at registration, ``delta`` for an incremental merge,
    ``rebuild`` for a from-scratch re-materialization) and
    ``shipped_bytes`` what the refresh moved across the fabric — the
    two numbers the subscribe benchmark compares against re-execution.
    """

    subscription_id: str
    seq: int
    epoch: float
    generation: int
    mode: str
    result: FlowQLResult
    route: str
    shipped_bytes: int = 0
    changed: bool = True
    degraded: bool = False

    def to_wire(self) -> dict:
        return {
            "subscription_id": self.subscription_id,
            "seq": self.seq,
            "epoch": self.epoch,
            "generation": self.generation,
            "mode": self.mode,
            "result": self.result.to_wire(),
            "route": self.route,
            "shipped_bytes": self.shipped_bytes,
            "changed": self.changed,
            "degraded": self.degraded,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "SubscriptionUpdate":
        try:
            return cls(
                subscription_id=data["subscription_id"],
                seq=int(data["seq"]),
                epoch=float(data["epoch"]),
                generation=int(data["generation"]),
                mode=data["mode"],
                result=FlowQLResult.from_wire(data["result"]),
                route=data.get("route", ROUTE_FEDERATED),
                shipped_bytes=int(data.get("shipped_bytes", 0)),
                changed=bool(data.get("changed", True)),
                degraded=bool(data.get("degraded", False)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WireSchemaError(
                f"bad SubscriptionUpdate on the wire: {exc}"
            )


class Subscription:
    """One standing query and its delta-maintained state."""

    def __init__(
        self,
        subscription_id: str,
        query: FlowQLQuery,
        text: str,
        registry: "SubscriptionRegistry",
    ) -> None:
        self.id = subscription_id
        self.query = query
        self.text = text
        self._registry = registry
        self.active = True
        self.seq = 0
        self.updates: Deque[SubscriptionUpdate] = deque(maxlen=HISTORY)
        self.callbacks: List[Callable[[SubscriptionUpdate], None]] = []
        self.callback_errors = 0
        #: one kept fold per window (None while not materialized, or
        #: when the last snapshot's folds were not resumable)
        self.views: Optional[List[WindowFold]] = None
        self.generation = -1
        self.route: Optional[str] = None
        self.level: Optional[str] = None
        self.last_result: Optional[FlowQLResult] = None
        #: lifetime counters (census / benchmark)
        self.delta_refreshes = 0
        self.rebuilds = 0
        self.shipped_bytes_total = 0

    # -- consumer API --------------------------------------------------------

    def latest(self) -> Optional[SubscriptionUpdate]:
        """The most recent update (None before materialization)."""
        with self._registry._lock:
            return self.updates[-1] if self.updates else None

    def updates_since(
        self, cursor: int
    ) -> Tuple[List[SubscriptionUpdate], bool]:
        """Updates with ``seq > cursor``; ``(updates, resynced)``.

        When the cursor has fallen out of the ring, returns whatever
        the ring still holds with ``resynced=True`` — the first update
        is then a snapshot newer than the gap, not its continuation.
        """
        with self._registry._lock:
            pending = [u for u in self.updates if u.seq > cursor]
            resynced = bool(
                pending
                and cursor > 0
                and pending[0].seq != cursor + 1
            )
            return pending, resynced

    def cancel(self) -> None:
        """Deregister: no further updates are produced."""
        self._registry.cancel(self.id)

    def on_update(
        self, callback: Callable[[SubscriptionUpdate], None]
    ) -> None:
        """Register an in-process callback fired per published update."""
        self.callbacks.append(callback)


class SubscribeMetrics:
    """``repro_subscribe_*`` families; a no-op shell when obs is off."""

    def __init__(self, obs) -> None:
        self.enabled = obs.enabled
        if not self.enabled:
            return
        registry = obs.registry
        self.active = registry.gauge(
            ACTIVE, "Standing queries currently registered"
        )
        self.updates = registry.counter(
            UPDATES_TOTAL,
            "Subscription updates published, by mode "
            "(init, delta, rebuild)",
            ("mode",),
        )
        self.refresh_seconds = registry.histogram(
            REFRESH_SECONDS,
            "Per-subscription refresh latency at each epoch close",
            buckets=_REFRESH_BUCKETS,
        )
        self.shipped = registry.counter(
            SHIPPED_BYTES_TOTAL,
            "Fabric bytes moved by subscription refreshes",
        )
        self.rebuilds = registry.counter(
            REBUILDS_TOTAL,
            "Full view rebuilds, by reason (generation, entry-prefix, "
            "partition-prefix, replica-served, privacy-guard, "
            "degraded, route-changed)",
            ("reason",),
        )

    def published(
        self, mode: str, seconds: float, shipped_bytes: int
    ) -> None:
        if not self.enabled:
            return
        self.updates.labels(mode=mode).inc()
        self.refresh_seconds.labels().observe(seconds)
        if shipped_bytes:
            self.shipped.labels().inc(shipped_bytes)

    def rebuild(self, reason: str) -> None:
        if not self.enabled:
            return
        self.rebuilds.labels(reason=reason).inc()

    def set_active(self, count: int) -> None:
        if not self.enabled:
            return
        self.active.labels().set(count)


class SubscriptionRegistry:
    """Every standing query of one planner, refreshed at epoch closes."""

    def __init__(self, planner: "FederatedQueryPlanner") -> None:
        self.planner = planner
        self._subscriptions: Dict[str, Subscription] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self.metrics = SubscribeMetrics(planner.runtime.obs)
        #: lifetime census (the benchmark and ``/healthz`` read these)
        self.updates_published = 0
        self.rebuilds = 0
        self.delta_refreshes = 0
        self.shipped_bytes_total = 0
        self.refresh_seconds_total = 0.0

    def __len__(self) -> int:
        return len(self._subscriptions)

    # -- registration --------------------------------------------------------

    def register(
        self,
        flowql: Union[str, FlowQLQuery],
        on_update: Optional[
            Callable[[SubscriptionUpdate], None]
        ] = None,
        now: Optional[float] = None,
    ) -> Subscription:
        """Register one standing query and materialize it once.

        Accepts ``SUBSCRIBE SELECT ...`` or bare ``SELECT ...`` text
        (or a parsed query).  When the hierarchy holds no matching data
        yet, the subscription stays pending and materializes at the
        first close that covers it.
        """
        query = (
            self.planner.memo.parse(flowql)
            if isinstance(flowql, str)
            else flowql
        )
        text = flowql if isinstance(flowql, str) else ""
        if query.subscribe:
            query = replace(query, subscribe=False)
        subscription = Subscription(
            f"sub-{next(_subscription_ids)}", query, text, self
        )
        if on_update is not None:
            subscription.on_update(on_update)
        now = self.planner.clock if now is None else now
        with self._lock:
            self._subscriptions[subscription.id] = subscription
            try:
                self._rebuild(subscription, now, mode=MODE_INIT)
            except FlowQLPlanningError:
                pass  # nothing to materialize yet; retry at each close
            self.metrics.set_active(len(self._subscriptions))
        return subscription

    def get(self, subscription_id: str) -> Optional[Subscription]:
        with self._lock:
            return self._subscriptions.get(subscription_id)

    def cancel(self, subscription_id: str) -> bool:
        with self._cond:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is None:
                return False
            subscription.active = False
            self.metrics.set_active(len(self._subscriptions))
            self._cond.notify_all()
            return True

    # -- the epoch hook ------------------------------------------------------

    def on_epoch_closed(self, now: float) -> int:
        """Refresh every standing query; returns updates published.

        Runs inside the runtime's ``close_epoch`` (and on restart
        recovery), after rollup/export so the newly sealed partitions
        and FlowDB entries are visible.
        """
        with self._lock:
            subscriptions = list(self._subscriptions.values())
        published = 0
        for subscription in subscriptions:
            if not subscription.active:
                continue
            try:
                self._refresh(subscription, now)
                published += 1
            except FlowQLPlanningError:
                # the query does not plan right now (no coverage after
                # a leave/restart, or no data yet): stay pending and
                # retry at the next boundary
                subscription.views = None
        return published

    # -- refresh machinery ---------------------------------------------------

    def _refresh(self, subscription: Subscription, now: float) -> None:
        started = time.perf_counter()
        generation = self.planner._topology_generation()
        if subscription.views is None:
            self._rebuild(subscription, now, mode=MODE_INIT)
            return
        try:
            if generation != subscription.generation:
                raise FoldBroken("generation")
            plan = self.planner.plan(subscription.query)
            if (plan.route, plan.level) != (
                subscription.route, subscription.level
            ):
                raise FoldBroken("route-changed")
            shipped = sum(
                read.shipped_bytes
                for fold in subscription.views
                for read in fold.advance(now)
            )
        except FoldBroken as exc:
            # a broken prefix, or a link that died mid-advance and may
            # have left a torn window: drop the folds and answer this
            # boundary with a (possibly degraded) cold rebuild
            self.metrics.rebuild(exc.reason)
            self._rebuild(subscription, now, mode=MODE_REBUILD)
            return
        result = answer(subscription.views, subscription.query)
        subscription.delta_refreshes += 1
        self.delta_refreshes += 1
        self._publish(
            subscription,
            result,
            now,
            generation,
            MODE_DELTA,
            plan.route,
            shipped,
            degraded=False,
            started=started,
        )

    def _rebuild(
        self, subscription: Subscription, now: float, mode: str
    ) -> None:
        """Materialize from scratch: new folds advanced from empty,
        exactly what a cold execution does, kept iff all can resume."""
        started = time.perf_counter()
        planner = self.planner
        query = subscription.query
        plan = planner.plan(query)
        generation = planner._topology_generation()
        degradation = Degradation()
        folds = planner.window_folds(plan, query)
        shipped = sum(
            read.shipped_bytes
            for fold in folds
            for read in fold.advance(now, degradation)
        )
        result = answer(folds, query)
        degraded = degradation.is_degraded
        if all(fold.resumable for fold in folds):
            subscription.views = folds
            subscription.generation = generation
            subscription.route = plan.route
            subscription.level = plan.level
        else:
            # the snapshot is honest, but cannot be continued: stay
            # unmaterialized and rebuild again next boundary
            subscription.views = None
            if degraded:
                self.metrics.rebuild("degraded")
        if mode != MODE_INIT:
            subscription.rebuilds += 1
            self.rebuilds += 1
        self._publish(
            subscription,
            result,
            now,
            generation,
            mode,
            plan.route,
            shipped,
            degraded=degraded,
            started=started,
        )

    def _publish(
        self,
        subscription: Subscription,
        result: FlowQLResult,
        now: float,
        generation: int,
        mode: str,
        route: str,
        shipped: int,
        degraded: bool,
        started: float,
    ) -> None:
        elapsed = time.perf_counter() - started
        with self._cond:
            subscription.seq += 1
            changed = (
                subscription.last_result is None
                or result.to_wire()
                != subscription.last_result.to_wire()
            )
            update = SubscriptionUpdate(
                subscription_id=subscription.id,
                seq=subscription.seq,
                epoch=now,
                generation=generation,
                mode=mode,
                result=result.copy(),
                route=route,
                shipped_bytes=shipped,
                changed=changed,
                degraded=degraded,
            )
            subscription.updates.append(update)
            subscription.last_result = result
            subscription.shipped_bytes_total += shipped
            self.updates_published += 1
            self.shipped_bytes_total += shipped
            self.refresh_seconds_total += elapsed
            self.metrics.published(mode, elapsed, shipped)
            self._cond.notify_all()
        for callback in list(subscription.callbacks):
            try:
                callback(update)
            except Exception:  # noqa: BLE001 - apps must not kill closes
                subscription.callback_errors += 1

    # -- blocking consumers (the serving plane's long-poll) ------------------

    def wait_for(
        self,
        subscription_id: str,
        cursor: int,
        timeout_s: float,
    ) -> Tuple[List[SubscriptionUpdate], bool, bool]:
        """Block until updates past ``cursor`` exist (or timeout).

        Returns ``(updates, resynced, known)`` — ``known=False`` means
        the subscription does not exist (or was cancelled while
        waiting).
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        with self._cond:
            while True:
                subscription = self._subscriptions.get(subscription_id)
                if subscription is None:
                    return [], False, False
                pending, resynced = subscription.updates_since(cursor)
                if pending:
                    return pending, resynced, True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], False, True
                self._cond.wait(timeout=remaining)

    # -- introspection -------------------------------------------------------

    def census(self) -> dict:
        """A JSON-able snapshot (plane ``/healthz``, CLI)."""
        with self._lock:
            return {
                "active": len(self._subscriptions),
                "updates_published": self.updates_published,
                "delta_refreshes": self.delta_refreshes,
                "rebuilds": self.rebuilds,
                "shipped_bytes_total": self.shipped_bytes_total,
                "subscriptions": {
                    sub.id: {
                        "query": sub.text or sub.query.select.name,
                        "seq": sub.seq,
                        "route": sub.route,
                        "delta_refreshes": sub.delta_refreshes,
                        "rebuilds": sub.rebuilds,
                        "shipped_bytes": sub.shipped_bytes_total,
                    }
                    for sub in self._subscriptions.values()
                },
            }
