"""The Manager: the architecture's control plane (Figure 3b).

The Manager knows every data store, tracks the resources they and the
network consume, and turns application requirements into installed,
configured aggregators:

    "The manager then uses this information to decide (a) what data
    should be kept from which sensors (b) what computing primitive
    should be installed, (c) how the computing primitives should be
    configured and (d) what analytics is deployed within the
    infrastructure."

It also owns the access records that drive adaptive replication
(Section VII): every remote access observed on a partition is forwarded
to the replication engine, closing the Figure 6 loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Set

from repro.control.requirements import ApplicationRequirement
from repro.core.registry import PrimitiveRegistry, default_registry
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator, match_all, prefix_filter
from repro.datastore.store import DataStore
from repro.errors import PlacementError, StorageError
from repro.replication.engine import AdaptiveReplicationEngine


@dataclass(frozen=True)
class StoreStatus:
    """Resource snapshot of one data store."""

    location: str
    aggregators: int
    partitions: int
    stored_bytes: int
    storage_pressure: float
    items_ingested: int


@dataclass(eq=False)
class _Created:
    """One aggregator the Manager created, the store it went into, and
    the applications that still require it."""

    store: DataStore
    aggregator: Aggregator
    apps: Set[str] = field(default_factory=set)


class Manager:
    """Installs, configures, and adapts applications' aggregators.

    ``stores`` is the one store table, location path -> store, and is
    read live, never copied or written: a runtime passes its own, so
    every store it provisions, re-keys or retires is what placement and
    :meth:`status` see.  The Manager writes only the aggregators it
    created, recorded against the store object (which a move re-keys
    but keeps): :meth:`retune` and :meth:`withdraw_application` act on
    those alone, and a requirement naming an aggregator the Manager did
    not create (a level's own, or one installed by hand) is refused.
    """

    def __init__(
        self,
        stores: Mapping[str, DataStore],
        registry: Optional[PrimitiveRegistry] = None,
        require_authorization: bool = False,
    ) -> None:
        self._stores = stores
        self.registry = registry or default_registry()
        #: Section III.C: "requiring authorization prior to interaction
        #: with the manager".  When enabled, mutating calls need an
        #: AuthorizationContext holding the right role.
        self.require_authorization = require_authorization
        self._created: List[_Created] = []
        self.replication_engine: Optional[AdaptiveReplicationEngine] = None

    def covering_store(self, location: Location) -> DataStore:
        """The store at ``location`` or the nearest ancestor with one.

        This is the placement rule: aggregation happens as close to the
        data as the deployed stores allow.
        """
        probe: Optional[Location] = location
        while probe is not None:
            store = self._stores.get(probe.path)
            if store is not None:
                return store
            probe = probe.parent
        raise PlacementError(
            f"no data store covers location {location.path!r}"
        )

    # -- requirements → installations ---------------------------------------

    def _authorize(self, context, role: str) -> None:
        if not self.require_authorization:
            return
        from repro.datastore.privacy import PrivacyViolation

        if context is None:
            raise PrivacyViolation(
                f"manager requires authorization (role {role!r}) but no "
                "context was given"
            )
        context.require(role)

    def _created_at(self, store: DataStore, name: str) -> _Created:
        """The record of the aggregator ``name`` installed at ``store``.

        A :class:`StorageError` when the store holds none by that name,
        a :class:`PlacementError` when the Manager did not create it.
        """
        aggregator = store.aggregator(name)
        for created in self._created:
            if created.aggregator is aggregator:
                return created
        raise PlacementError(
            f"aggregator {name!r} at {store.location.path!r} belongs to "
            "the store (its level's own or one installed by hand), not "
            "to the Manager"
        )

    def submit_requirement(
        self, requirement: ApplicationRequirement, context=None
    ) -> Aggregator:
        """Install (or reuse) an aggregator satisfying a requirement."""
        self._authorize(context, "deploy")
        store = self.covering_store(requirement.location)
        try:
            created = self._created_at(store, requirement.aggregator_name)
        except StorageError:
            primitive = self.registry.create(
                requirement.kind,
                store.location,
                requirement.effective_config(),
            )
            stream_filter = (
                prefix_filter(requirement.stream_prefix)
                if requirement.stream_prefix
                else match_all
            )
            aggregator = Aggregator(
                requirement.aggregator_name,
                primitive,
                stream_filter=stream_filter,
                item_of=requirement.config.get("item_of"),
            )
            store.install_aggregator(aggregator)
            created = _Created(store, aggregator)
            self._created.append(created)
        kind = created.aggregator.primitive.kind
        if kind != requirement.kind:
            raise PlacementError(
                f"aggregator {requirement.aggregator_name!r} exists at "
                f"{store.location.path!r} with kind {kind!r}, "
                f"requirement wants {requirement.kind!r}"
            )
        created.apps.add(requirement.app_name)
        return created.aggregator

    def withdraw_application(self, app_name: str, context=None) -> int:
        """Remove the aggregators the Manager created solely for one
        application.

        An aggregator another application still requires stays.  The
        decision reads the Manager's records, never a requirement's
        location again, so a store moved or re-keyed since is found; a
        store the table no longer holds (it left) has nothing to remove.
        Returns how many aggregators were removed.
        """
        self._authorize(context, "deploy")
        removed = 0
        kept: List[_Created] = []
        for created in self._created:
            created.apps.discard(app_name)
            if created.apps:
                kept.append(created)
                continue
            store = created.store
            if self._stores.get(store.location.path) is store and any(
                aggregator is created.aggregator
                for aggregator in store.aggregators()
            ):
                store.remove_aggregator(created.aggregator.name)
                removed += 1
        self._created = kept
        return removed

    # -- precision control -----------------------------------------------

    def retune(
        self,
        location: Location,
        aggregator_name: str,
        precision: float,
        context=None,
    ) -> None:
        """Change the granularity of an aggregator the Manager created.

        A level's own aggregator is refused: its budget has one writer,
        the runtime's level resize, which keeps its config and every
        tree of the level equal.
        """
        self._authorize(context, "operate")
        store = self.covering_store(location)
        created = self._created_at(store, aggregator_name)
        created.aggregator.primitive.set_granularity(precision)

    # -- replication (Figure 6 integration) ---------------------------------

    def enable_adaptive_replication(
        self, engine: AdaptiveReplicationEngine
    ) -> None:
        """Attach the replication engine that access records feed."""
        self.replication_engine = engine

    def record_remote_access(
        self,
        producer: DataStore,
        consumer: DataStore,
        partition_id: str,
        result_bytes: int,
        now: float,
    ) -> bool:
        """Fig. 6 step 1-2: record the access, maybe start replication."""
        if self.replication_engine is None:
            return False
        return self.replication_engine.on_remote_access(
            producer, consumer, partition_id, result_bytes, now
        )

    # -- observability ------------------------------------------------------

    def status(self) -> List[StoreStatus]:
        """Resource snapshot across all stores."""
        return [
            StoreStatus(
                location=store.location.path,
                aggregators=len(store.aggregators()),
                partitions=len(store.catalog),
                stored_bytes=store.catalog.total_bytes(),
                storage_pressure=store.storage_pressure(),
                items_ingested=store.ingest_stats.items,
            )
            for store in self._stores.values()
        ]
