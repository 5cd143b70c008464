"""Standing FlowQL queries: the planner-side subscription registry.

Dashboards and detectors re-issue the same FlowQL every epoch; the
reactive :class:`~repro.query.cache.QueryCache` cannot help them once a
close seals new data into their window.  ``SUBSCRIBE <flowql>``
turns such a query into a *standing* one: the planner materializes its
plan's result once and then **delta-maintains** it on every epoch close
— Merge of the newly sealed partitions into the materialized view
instead of re-reading (and re-shipping) the whole window.

A subscription keeps one :class:`~repro.query.fold.WindowFold` per
window it reads (FROM, and VS when present) — the same object a cold
query advances once and drops.  At each close the registry hands the
kept folds to the planner's one fold call (:meth:`~repro.query.planner.
FederatedQueryPlanner.fold`), which advances them past what they
consumed; the answer is identical to re-execution because it *is* the
cold computation, continued.  When the folds cannot continue (see
:class:`~repro.query.fold.FoldBroken` for the breakers; besides, the
plan's route or level moved, or a link died mid-advance) or the
topology generation moved, the fold call starts from empty — a
rebuild — and the new folds are kept iff all are resumable.  Ordinary
closes never rebuild.

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
from collections import Counter, deque

from repro.errors import FlowQLPlanningError, WireSchemaError
from repro.flowql.ast import FlowQLQuery
from repro.flowql.executor import FlowQLResult
from repro.obs.bridge import SUBSCRIBE_REFRESH_SECONDS
from repro.query.fold import WindowFold
from repro.query.plan import ROUTE_FEDERATED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.query.planner import FederatedQueryPlanner

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


class SubscriptionRegistry:
    """Every standing query of one planner, refreshed at epoch closes."""

    def __init__(self, planner: "FederatedQueryPlanner") -> None:
        self.planner = planner
        self._subscriptions: Dict[str, Subscription] = {}
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._obs = planner.runtime.obs
        #: lifetime census (the benchmark, ``/healthz`` and the
        #: ``repro_subscribe_*`` families read these): updates published
        #: by mode, and view rebuilds by reason
        self.updates_by_mode: Counter = Counter()
        self.rebuild_reasons: Counter = Counter()
        self.shipped_bytes_total = 0
        self.refresh_seconds_total = 0.0

    def __len__(self) -> int:
        return len(self._subscriptions)

    @property
    def updates_published(self) -> int:
        return sum(self.updates_by_mode.values())

    @property
    def delta_refreshes(self) -> int:
        return self.updates_by_mode[MODE_DELTA]

    @property
    def rebuilds(self) -> int:
        return self.updates_by_mode[MODE_REBUILD]

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
                self._refresh(subscription, now)
            except FlowQLPlanningError:
                pass  # nothing to materialize yet; retry at each close
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
        """Answer the query at this boundary through the one fold call:
        ``init`` while nothing is kept, ``delta`` when the kept folds
        continue, ``rebuild`` when they had to start from empty."""
        started = time.perf_counter()
        planner = self.planner
        query = subscription.query
        generation = planner._topology_generation()
        kept = subscription.views
        mode = MODE_INIT if kept is None else MODE_DELTA
        if kept is not None and generation != subscription.generation:
            self.rebuild_reasons["generation"] += 1
            kept, mode = None, MODE_REBUILD
        plan = planner.plan(query)
        folds, result, degradation, broken = planner.fold(
            query, plan, now, kept
        )
        if broken is not None:
            self.rebuild_reasons[broken] += 1
            mode = MODE_REBUILD
        degraded = degradation.is_degraded
        if mode == MODE_DELTA:
            subscription.delta_refreshes += 1
        elif all(fold.resumable for fold in folds):
            subscription.views = folds
            subscription.generation = generation
        else:
            # the snapshot is honest, but cannot be continued: stay
            # unmaterialized and fold from empty again next boundary
            subscription.views = None
            if degraded:
                self.rebuild_reasons["degraded"] += 1
        if mode == MODE_REBUILD:
            subscription.rebuilds += 1
        self._publish(
            subscription,
            result,
            now,
            generation,
            mode,
            plan.route,
            plan.shipped_bytes,
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
            self.updates_by_mode[mode] += 1
            self.shipped_bytes_total += shipped
            self.refresh_seconds_total += elapsed
            self._obs.observe(SUBSCRIBE_REFRESH_SECONDS, elapsed)
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
                        "route": (
                            sub.updates[-1].route if sub.updates else None
                        ),
                        "delta_refreshes": sub.delta_refreshes,
                        "rebuilds": sub.rebuilds,
                        "shipped_bytes": sub.shipped_bytes_total,
                    }
                    for sub in self._subscriptions.values()
                },
            }
