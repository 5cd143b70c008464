"""Tests for the reactive query cache and the planner that keys it."""

from repro.datastore.cache import QueryCache
from tests.test_query_planner import loaded_runtime


class TestQueryCacheUnit:
    def test_hit_within_ttl(self):
        cache = QueryCache(ttl_seconds=10.0)
        key = ("total", 0.0, 60.0)
        assert cache.get(key, now=0.0) is None
        cache.put(key, "result", now=0.0)
        entry = cache.get(key, now=5.0)
        assert entry is not None
        assert entry.value == "result"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_expiry(self):
        cache = QueryCache(ttl_seconds=10.0)
        key = ("total", None, None)
        cache.put(key, "x", now=0.0)
        assert cache.get(key, now=10.0) is None
        assert len(cache) == 0

    def test_different_params_different_keys(self):
        """Keys that differ in one parameter hold separate entries."""
        cache = QueryCache()
        cache.put(("top_k", 5), "five", now=0.0)
        cache.put(("top_k", 9), "nine", now=0.0)
        assert len(cache) == 2
        assert cache.get(("top_k", 5), now=1.0).value == "five"
        assert cache.get(("top_k", 9), now=1.0).value == "nine"

    def test_expiry_boundary_is_exact(self):
        """The documented contract: ``now - stored_at == ttl_seconds``
        is already expired (live strictly *less than* the TTL)."""
        cache = QueryCache(ttl_seconds=10.0)
        key = ("total", None, None)
        cache.put(key, "x", now=5.0)
        assert cache.get(key, now=14.999) is not None
        cache.put(key, "x", now=5.0)
        assert cache.get(key, now=15.0) is None  # exactly ttl later
        assert len(cache) == 0

    def test_capacity_evicts_oldest(self):
        cache = QueryCache(max_entries=2)
        keys = [("top_k", k) for k in range(3)]
        for index, key in enumerate(keys):
            cache.put(key, index, now=float(index))
        assert cache.get(keys[0], now=2.5) is None  # evicted
        assert cache.get(keys[2], now=2.5) is not None

    def test_overwrite_reinserts_at_the_back(self):
        """Re-storing a key must refresh its eviction position, or the
        insertion-ordered eviction would drop the *newest* data."""
        cache = QueryCache(max_entries=2)
        keys = [("top_k", k) for k in range(3)]
        cache.put(keys[0], "a", now=0.0)
        cache.put(keys[1], "b", now=1.0)
        cache.put(keys[0], "a2", now=2.0)  # refresh: now newest
        cache.put(keys[2], "c", now=3.0)  # evicts keys[1], not keys[0]
        assert cache.get(keys[1], now=3.5) is None
        entry = cache.get(keys[0], now=3.5)
        assert entry is not None and entry.value == "a2"

    def test_eviction_is_insertion_ordered_at_scale(self):
        """A full cache keeps exactly the most recent ``max_entries``
        keys (the O(1)-eviction ordering invariant)."""
        cache = QueryCache(max_entries=8)
        keys = [("top_k", k) for k in range(40)]
        for index, key in enumerate(keys):
            cache.put(key, index, now=float(index))
        assert len(cache) == 8
        for key in keys[:-8]:
            assert cache.get(key, now=40.0) is None
        for index, key in enumerate(keys[-8:], start=32):
            entry = cache.get(key, now=40.0)
            assert entry is not None and entry.value == index

    def test_invalidate(self):
        cache = QueryCache()
        key = ("total", None, None)
        cache.put(key, "x", now=0.0)
        assert cache.invalidate() == 1
        assert cache.get(key, now=0.1) is None

    def test_invalidate_open_keeps_closed_windows(self):
        """Epoch-scoped invalidation: only entries whose window was
        still open at the boundary are dropped."""
        cache = QueryCache()
        closed = ("total", 0.0, 60.0)
        straddling = ("total", 60.0, 180.0)
        unbounded = ("total", 0.0, None)
        cache.put(closed, "a", now=70.0, window=(0.0, 60.0))
        cache.put(straddling, "b", now=70.0, window=(60.0, 180.0))
        cache.put(unbounded, "c", now=70.0, window=(0.0, None))
        assert cache.invalidate_open(120.0) == 2
        entry = cache.get(closed, now=80.0)
        assert entry is not None and entry.value == "a"
        assert cache.get(straddling, now=80.0) is None
        assert cache.get(unbounded, now=80.0) is None

    def test_invalidate_open_boundary_is_inclusive(self):
        """A window ending exactly at the boundary is closed (survives);
        one ending just past it is open (dropped)."""
        cache = QueryCache()
        at_boundary = ("total", 0.0, 120.0)
        past_boundary = ("total", 0.0, 120.001)
        cache.put(at_boundary, "a", now=130.0, window=(0.0, 120.0))
        cache.put(past_boundary, "b", now=130.0, window=(0.0, 120.001))
        assert cache.invalidate_open(120.0) == 1
        assert cache.get(at_boundary, now=130.0) is not None
        assert cache.get(past_boundary, now=130.0) is None

    def test_invalidate_window_drops_overlaps_only(self):
        """The late-delivery hook hits exactly the overlapping windows
        (half-open interval semantics: touching endpoints don't
        overlap)."""
        cache = QueryCache()
        windows = [(0.0, 60.0), (60.0, 120.0), (120.0, 180.0)]
        for window in windows:
            cache.put(("total",) + window, window, now=200.0, window=window)
        assert cache.invalidate_window(60.0, 120.0) == 1
        assert cache.get(("total", 0.0, 60.0), now=210.0) is not None
        assert cache.get(("total", 60.0, 120.0), now=210.0) is None
        assert cache.get(("total", 120.0, 180.0), now=210.0) is not None

    def test_invalidate_window_none_bounds_are_unbounded(self):
        cache = QueryCache()
        early = ("total", 0.0, 60.0)
        late = ("total", 60.0, 120.0)
        cache.put(early, "a", now=130.0, window=(0.0, 60.0))
        cache.put(late, "b", now=130.0, window=(60.0, 120.0))
        # everything before t=60 overlaps only the early window
        assert cache.invalidate_window(None, 60.0) == 1
        assert cache.get(early, now=140.0) is None
        assert cache.get(late, now=140.0) is not None


class TestFederatedCaching:
    ROUTER1 = "network1/region1/router1"

    def test_cache_expires_and_refetches(self):
        """An entry older than the TTL misses, and the read ships again."""
        runtime = loaded_runtime(epochs=1)
        runtime.planner.cache = QueryCache(ttl_seconds=30.0)
        text = f"SELECT TOTAL FROM TIME(0, 60) AT {self.ROUTER1}"
        first = runtime.planner.execute(text, now=70.0)
        assert runtime.planner.execute(text, now=99.0).cache.hit
        stale = runtime.planner.execute(text, now=70.0 + 31.0)
        assert stale.cache.hit is False
        assert stale.plan.shipped_bytes == first.plan.shipped_bytes > 0
        assert stale.scalar == first.scalar

    def test_different_windows_not_conflated(self):
        runtime = loaded_runtime(epochs=1)
        runtime.query(f"SELECT TOTAL FROM TIME(0, 60) AT {self.ROUTER1}")
        other = runtime.query(
            f"SELECT TOTAL FROM TIME(0, 30) AT {self.ROUTER1}"
        )
        assert other.cache.hit is False  # distinct window, distinct key
        assert other.plan.shipped_bytes > 0

    def test_cached_result_not_stale_across_epoch_boundary(self):
        """close_epoch invalidates the planner's cache: new data must
        show up in the very next query, never a stale cached answer."""
        from repro.runtime.presets import network_4level_runtime
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=2,
            retain_partitions=True,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=120), seed=5
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)

        first = runtime.query("SELECT TOTAL FROM ALL")
        runtime.query("SELECT TOTAL FROM ALL")
        assert runtime.planner.last_plan.cache_hit  # warm within the epoch
        assert runtime.stats.queries_cached == 1

        for site in sites:
            runtime.ingest(site, generator.epoch(site, 1))
        runtime.close_epoch(120.0)  # boundary: cached answers are stale

        fresh = runtime.query("SELECT TOTAL FROM ALL")
        assert runtime.planner.last_plan.cache_hit is False
        assert runtime.stats.queries_cached == 1  # no stale hit
        assert fresh.scalar.bytes > first.scalar.bytes  # sees epoch 1

    def test_closed_window_repeats_survive_epoch_closes(self):
        """Epoch-scoped invalidation end to end: a federated query over
        a fully-closed historical window stays a zero-byte cache hit
        across later epoch closes — new epochs seal strictly later data
        and cannot change it."""
        from repro.runtime.presets import network_4level_runtime
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=2,
            retain_partitions=True,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=120), seed=13
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)

        flowql = f"SELECT TOTAL FROM TIME(0, 60) AT {sites[0]}"
        first = runtime.query(flowql)
        assert first.plan.route == "federated"
        assert first.cache.hit is False

        for epoch in (1, 2):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch(60.0 * (epoch + 1))
            repeat = runtime.query(flowql)
            assert repeat.cache.hit  # survived the close
            assert repeat.scalar == first.scalar
            assert repeat.plan.shipped_bytes == 0

    def test_late_entry_reopens_closed_window(self):
        """An entry that lands with a *historical* interval (a parked
        root export finally redelivered) must re-invalidate the cached
        windows it overlaps at the next close — those answers changed
        even though their windows were closed."""
        from repro.core.summary import TimeInterval
        from repro.runtime.presets import network_4level_runtime
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=2,
            retain_partitions=True,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=120), seed=23
        )
        for epoch in (0, 1):
            for site in sites:
                runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch(60.0 * (epoch + 1))

        reopened = "SELECT TOTAL FROM TIME(0, 60)"
        untouched = "SELECT TOTAL FROM TIME(60, 120)"
        stale = runtime.query(reopened)
        runtime.query(untouched)
        assert runtime.query(reopened).cache.hit  # both warm
        assert runtime.query(untouched).cache.hit

        # a parked epoch-0 export redelivers late: _deliver_flowdb
        # inserts it with its original (historical) interval
        template = runtime.db.entries(None, None, None)[0]
        runtime.db.insert(
            location=template.location,
            interval=TimeInterval(5.0, 55.0),
            tree=template.tree.copy(),
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 2))
        runtime.close_epoch(180.0)

        fresh = runtime.query(reopened)
        assert fresh.cache.hit is False  # late arrival reopened it
        assert fresh.scalar.bytes > stale.scalar.bytes  # recovered mass
        assert runtime.query(untouched).cache.hit  # disjoint: survived

    def test_replica_promotion_retires_cached_plans_mid_window(self):
        """Promoting a partition to a root-side replica mid-window must
        change the cache key (the plan now reads locally): the stale
        pre-promotion entry may not be served."""
        from repro.runtime.presets import network_4level_runtime
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=2,
            retain_partitions=True,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=120), seed=9
        )
        for site in sites:
            runtime.ingest(site, generator.epoch(site, 0))
        runtime.close_epoch(60.0)

        flowql = f"SELECT TOTAL FROM ALL AT {sites[0]}"
        first = runtime.query(flowql)
        assert first.plan.route == "federated"
        repeat = runtime.query(flowql)
        assert repeat.cache.hit  # warm before the promotion

        store = runtime.store_for(sites[0])
        for partition in store.catalog.all():
            store.replicate_partition(
                partition.partition_id, runtime.planner.replica_store,
                now=70.0,
            )
        promoted = runtime.query(flowql)
        assert promoted.cache.hit is False  # generation changed the key
        assert promoted.scalar == first.scalar
        read = promoted.plan.reads[0]
        assert read.replica_partitions  # and the replica actually served
        assert read.shipped_bytes == 0

    def test_caching_complements_replication(self):
        """Cache serves repeats of one query; the replica serves *any*
        query — the paper's reason to prefer replication."""
        runtime = loaded_runtime(epochs=1)
        runtime.query(f"SELECT TOTAL FROM TIME(0, 60) AT {self.ROUTER1}")
        store = runtime.store_for(self.ROUTER1)
        for partition in store.catalog.all():
            store.replicate_partition(
                partition.partition_id, runtime.planner.replica_store,
                now=72.0,
            )
        moved = runtime.total_network_bytes()
        fresh = runtime.query(
            f"SELECT TOPK(3) FROM TIME(0, 60) AT {self.ROUTER1} BY bytes"
        )
        assert fresh.cache.hit is False  # never asked before...
        read = fresh.plan.reads[0]
        assert read.replica_partitions  # ...and still answered locally
        assert read.shipped_bytes == 0
        assert runtime.total_network_bytes() == moved
