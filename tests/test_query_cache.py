"""Tests for the reactive query cache and the planner that keys it."""

from repro.core.summary import stores_changed
from repro.query.cache import TTL_SECONDS, QueryCache
from repro.query.memo import MEMO_MAX
from tests.test_query_planner import loaded_runtime


def new_cache():
    """A cache whose requests are their own current inputs."""
    return QueryCache(lambda inputs: inputs)


class TestQueryCacheUnit:
    def test_hit_within_ttl(self):
        cache = new_cache()
        key = ("total", 0.0, 60.0)
        assert cache.get(key, 0.0, ()) is None
        cache.put(key, "result", 0.0, ())
        entry = cache.get(key, TTL_SECONDS / 2, ())
        assert entry is not None
        assert entry.value == "result"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_expiry(self):
        cache = new_cache()
        key = ("total", None, None)
        cache.put(key, "x", 0.0, ())
        assert cache.get(key, TTL_SECONDS, ()) is None
        assert len(cache) == 0

    def test_different_params_different_keys(self):
        """Keys that differ in one parameter hold separate entries."""
        cache = new_cache()
        cache.put(("top_k", 5), "five", 0.0, ())
        cache.put(("top_k", 9), "nine", 0.0, ())
        assert len(cache) == 2
        assert cache.get(("top_k", 5), 1.0, ()).value == "five"
        assert cache.get(("top_k", 9), 1.0, ()).value == "nine"

    def test_expiry_boundary_is_exact(self):
        """The documented contract: ``now - stored_at == TTL_SECONDS``
        is already expired (live strictly *less than* the TTL)."""
        cache = new_cache()
        key = ("total", None, None)
        cache.put(key, "x", 5.0, ())
        assert cache.get(key, 5.0 + TTL_SECONDS - 0.001, ()) is not None
        cache.put(key, "x", 5.0, ())
        assert cache.get(key, 5.0 + TTL_SECONDS, ()) is None
        assert len(cache) == 0

    def test_capacity_evicts_oldest(self):
        cache = new_cache()
        keys = [("top_k", k) for k in range(MEMO_MAX + 1)]
        for index, key in enumerate(keys):
            cache.put(key, index, 0.0, ())
        assert len(cache) == MEMO_MAX
        assert cache.get(keys[0], 1.0, ()) is None  # evicted
        assert cache.get(keys[-1], 1.0, ()) is not None

    def test_overwrite_reinserts_at_the_back(self):
        """Re-storing a key must refresh its eviction position, or the
        insertion-ordered eviction would drop the *newest* data."""
        cache = new_cache()
        keys = [("top_k", k) for k in range(MEMO_MAX + 1)]
        for key in keys[:-1]:
            cache.put(key, "old", 0.0, ())
        cache.put(keys[0], "a2", 1.0, ())  # refresh: now newest
        cache.put(keys[-1], "c", 2.0, ())  # evicts keys[1], not keys[0]
        assert cache.get(keys[1], 2.5, ()) is None
        entry = cache.get(keys[0], 2.5, ())
        assert entry is not None and entry.value == "a2"

    def test_eviction_is_insertion_ordered_at_scale(self):
        """A full cache keeps exactly the most recent ``MEMO_MAX`` keys
        (the O(1)-eviction ordering invariant)."""
        cache = new_cache()
        keys = [("top_k", k) for k in range(MEMO_MAX + 40)]
        for index, key in enumerate(keys):
            cache.put(key, index, 0.0, ())
        assert len(cache) == MEMO_MAX
        for key in keys[:40]:
            assert cache.get(key, 1.0, ()) is None
        for index, key in enumerate(keys[40:], start=40):
            entry = cache.get(key, 1.0, ())
            assert entry is not None and entry.value == index

    def test_invalidate(self):
        cache = new_cache()
        key = ("total", None, None)
        cache.put(key, "x", 0.0, ())
        assert cache.invalidate() == 1
        assert cache.get(key, 0.1, ()) is None

    def test_inputs_relisted_only_when_the_stores_moved(self):
        """The currency rule's cost: a lookup lists the window's inputs
        only after some store gained or lost a summary; equal inputs
        keep (and re-confirm) the entry, different ones drop it."""
        listed = []

        def inputs(request):
            listed.append(request)
            return request

        cache = QueryCache(inputs)
        key = ("total", 0.0, 60.0)
        cache.put(key, "x", 0.0, [{"": [1, 2]}])
        assert cache.get(key, 1.0, [{"": [1, 2, 3]}]) is not None
        assert listed == []  # nothing moved: today's hit path
        stores_changed()
        assert cache.get(key, 2.0, [{"": [1, 2]}]) is not None
        assert cache.get(key, 3.0, [{"": [9]}]) is not None
        assert listed == [[{"": [1, 2]}]]  # confirmed once, re-stamped
        stores_changed()
        assert cache.get(key, 4.0, [{"": [1]}]) is None
        assert len(cache) == 0 and (cache.hits, cache.misses) == (3, 1)


class TestFederatedCaching:
    ROUTER1 = "network1/region1/router1"

    def test_cache_expires_and_refetches(self):
        """An entry older than the TTL misses, and the read ships again."""
        runtime = loaded_runtime(epochs=1)
        text = f"SELECT TOTAL FROM TIME(0, 60) AT {self.ROUTER1}"
        first = runtime.planner.execute(text, now=70.0)
        assert runtime.planner.execute(text, now=99.0).cache.hit
        stale = runtime.planner.execute(text, now=70.0 + TTL_SECONDS)
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

    @staticmethod
    def two_routers(seed, epochs):
        """One region, two routers, 120 flows per router per epoch."""
        from repro.runtime.presets import network_4level_runtime
        from repro.simulation.traffic import TrafficConfig, TrafficGenerator

        runtime = network_4level_runtime(
            networks=1, regions_per_network=1, routers_per_region=2,
            retain_partitions=True,
        )
        sites = runtime.ingest_sites()
        generator = TrafficGenerator(
            TrafficConfig(sites=tuple(sites), flows_per_epoch=120),
            seed=seed,
        )

        def close(epoch, active=sites):
            for site in active:
                runtime.ingest(site, generator.epoch(site, epoch))
            runtime.close_epoch(60.0 * (epoch + 1))

        for epoch in range(epochs):
            close(epoch)
        return runtime, sites, close

    @staticmethod
    def cold(runtime, flowql):
        runtime.planner.invalidate_cache()
        return runtime.query(flowql)

    def test_evicted_partition_retires_closed_window(self):
        """Retention evicts one of a closed window's two partitions: the
        repeat is the cold read of what remains, not the kept answer."""
        runtime, sites, close = self.two_routers(seed=5, epochs=2)
        flowql = f"SELECT TOTAL FROM TIME(0, 120) AT {sites[0]}"
        first = runtime.query(flowql)
        assert first.plan.route == "federated"
        assert first.scalar.flows == 240
        store = runtime.store_for(sites[0])
        store.storage.budget_bytes = int(1.05 * store.catalog.total_bytes())
        close(2)
        repeat = runtime.query(flowql)
        cold = self.cold(runtime, flowql)
        assert repeat.cache.hit is False
        assert repeat.result.to_wire() == cold.result.to_wire()
        assert cold.scalar.flows == 120

    def test_quiet_store_keeps_its_answer(self):
        """A close that seals nothing a window reads leaves its answer
        current, even for an unbounded window."""
        runtime, sites, close = self.two_routers(seed=5, epochs=1)
        flowql = f"SELECT TOTAL FROM ALL AT {sites[0]}"
        first = runtime.query(flowql)
        assert first.plan.route == "federated"
        close(1, active=sites[1:])
        repeat = runtime.query(flowql)
        assert repeat.cache.hit
        assert repeat.plan.shipped_bytes == 0
        assert repeat.result.to_wire() == (
            self.cold(runtime, flowql).result.to_wire()
        )

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
