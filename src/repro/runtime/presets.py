"""Paper-faithful hierarchy runtimes as one-call presets.

Every paper system is a level table over the same runtime:

* :func:`flat_runtime` — the Figure 5 system: edge stores only,
  summaries cross the WAN straight into FlowDB.
* :func:`tiered_runtime` — Figure 2b: a region tier merges router trees
  before anything touches the WAN.
* :func:`network_4level_runtime` — the full Figure 1b topology
  (router → region → network → cloud) with stores at all three
  non-cloud levels.
* :func:`factory_4level_runtime` — the Figure 1a topology
  (machine → line → factory → cloud); machine telemetry is modeled as
  flow records so the same Flowtree/FlowQL stack spans both use cases.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import PlacementError
from repro.faults import FaultPlan, RetryPolicy
from repro.flows.flowkey import FIVE_TUPLE, FeatureSchema, GeneralizationPolicy
from repro.hierarchy.topology import (
    EDGE_DEADLINE,
    LINE_DEADLINE,
    MACHINE_DEADLINE,
    Hierarchy,
)
from repro.obs import Observability
from repro.runtime.config import LevelConfig
from repro.runtime.runtime import HierarchyRuntime
from repro.storage import StorageEngine


def flat_runtime(
    sites: List[str],
    schema: FeatureSchema = FIVE_TUPLE,
    policy: Optional[GeneralizationPolicy] = None,
    node_budget: int = 8192,
    epoch_seconds: float = 60.0,
    store_budget_bytes: int = 64 * 1024 * 1024,
    merge_node_budget: Optional[int] = 65536,
    faults: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    observability: Optional[Observability] = None,
    storage: Optional[StorageEngine] = None,
) -> HierarchyRuntime:
    """Edge stores at every site path, exporting straight to FlowDB."""
    if not sites:
        raise PlacementError("flat runtime needs at least one site")
    depths = {len(site.split("/")) for site in sites}
    if len(depths) > 1:
        raise PlacementError(
            "flat runtime needs sites of uniform depth; got depths "
            f"{sorted(depths)}"
        )
    hierarchy = Hierarchy.from_site_paths(sites)
    depth = depths.pop()
    levels = {
        # only the deepest level is store-bearing; intermediate path
        # segments are plain fabric nodes
        f"level{depth}": LevelConfig(
            aggregator="flowtree",
            node_budget=node_budget,
            storage_bytes=store_budget_bytes,
        )
    }
    return HierarchyRuntime(
        hierarchy,
        levels,
        schema=schema,
        policy=policy,
        epoch_seconds=epoch_seconds,
        merge_node_budget=merge_node_budget,
        faults=faults,
        retry_policy=retry_policy,
        observability=observability,
        storage=storage,
    )


def tiered_runtime(
    sites: List[str],
    schema: FeatureSchema = FIVE_TUPLE,
    policy: Optional[GeneralizationPolicy] = None,
    router_node_budget: int = 8192,
    region_node_budget: Optional[int] = 8192,
    epoch_seconds: float = 60.0,
    merge_node_budget: Optional[int] = 65536,
    store_budget_bytes: int = 256 * 1024 * 1024,
    faults: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    observability: Optional[Observability] = None,
    storage: Optional[StorageEngine] = None,
) -> HierarchyRuntime:
    """Router stores merging into region stores before the WAN hop.

    ``sites`` are ``region/router`` paths; a region's routers share its
    store."""
    if not sites:
        raise PlacementError("tiered runtime needs at least one site")
    for site in sites:
        if len([part for part in site.split("/") if part]) != 2:
            raise PlacementError(
                f"tiered runtime needs region/router sites; got {site!r}"
            )
    hierarchy = Hierarchy.from_site_paths(
        sites, level_names=["region", "router"]
    )
    levels = {
        "router": LevelConfig(
            aggregator="flowtree",
            node_budget=router_node_budget,
            storage_bytes=store_budget_bytes,
            retain_partitions=False,
        ),
        "region": LevelConfig(
            aggregator="flowtree",
            node_budget=region_node_budget,
            storage_bytes=store_budget_bytes,
        ),
    }
    return HierarchyRuntime(
        hierarchy,
        levels,
        schema=schema,
        policy=policy,
        epoch_seconds=epoch_seconds,
        merge_node_budget=merge_node_budget,
        faults=faults,
        retry_policy=retry_policy,
        observability=observability,
        storage=storage,
    )


def network_4level_runtime(
    networks: int = 1,
    regions_per_network: int = 2,
    routers_per_region: int = 2,
    schema: FeatureSchema = FIVE_TUPLE,
    policy: Optional[GeneralizationPolicy] = None,
    router_node_budget: int = 8192,
    region_node_budget: Optional[int] = 8192,
    network_node_budget: Optional[int] = None,
    epoch_seconds: float = 60.0,
    merge_node_budget: Optional[int] = 65536,
    retain_partitions: bool = False,
    faults: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    observability: Optional[Observability] = None,
    storage: Optional[StorageEngine] = None,
) -> HierarchyRuntime:
    """The Figure 1b topology: router → region → network → cloud.

    Routers forward into region stores, regions into network stores,
    and only the network tier's (optionally unbounded) merged trees
    cross the WAN into FlowDB.  ``retain_partitions`` keeps epoch
    partitions in the router/region catalogs too, letting the federated
    planner drill below the export tier.
    """
    sites = [
        f"network{n + 1}/region{r + 1}/router{i + 1}"
        for n in range(networks)
        for r in range(regions_per_network)
        for i in range(routers_per_region)
    ]
    hierarchy = Hierarchy.from_site_paths(
        sites,
        level_names=["network", "region", "router"],
        deadlines=[EDGE_DEADLINE, LINE_DEADLINE, MACHINE_DEADLINE],
    )
    levels = {
        "router": LevelConfig(
            aggregator="flowtree",
            node_budget=router_node_budget,
            retain_partitions=retain_partitions,
        ),
        "region": LevelConfig(
            aggregator="flowtree",
            node_budget=region_node_budget,
            retain_partitions=retain_partitions,
        ),
        "network": LevelConfig(
            aggregator="flowtree", node_budget=network_node_budget
        ),
    }
    return HierarchyRuntime(
        hierarchy,
        levels,
        schema=schema,
        policy=policy,
        epoch_seconds=epoch_seconds,
        merge_node_budget=merge_node_budget,
        faults=faults,
        retry_policy=retry_policy,
        observability=observability,
        storage=storage,
    )


def factory_4level_runtime(
    factories: int = 1,
    lines_per_factory: int = 2,
    machines_per_line: int = 3,
    schema: FeatureSchema = FIVE_TUPLE,
    policy: Optional[GeneralizationPolicy] = None,
    machine_node_budget: int = 4096,
    line_node_budget: Optional[int] = 8192,
    factory_node_budget: Optional[int] = None,
    epoch_seconds: float = 60.0,
    merge_node_budget: Optional[int] = 65536,
    retain_partitions: bool = False,
    faults: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    observability: Optional[Observability] = None,
    storage: Optional[StorageEngine] = None,
) -> HierarchyRuntime:
    """The Figure 1a topology: machine → line → factory → cloud (hq).

    Machine telemetry enters as flow records (the generalized-flow model
    covers any maskable feature schema), rolls up machine → line →
    factory, and only the factory tier's summaries reach FlowDB at hq.
    ``retain_partitions`` keeps epoch partitions in the machine/line
    catalogs too, letting the federated planner drill below the
    export tier.
    """
    sites = [
        f"factory{f + 1}/line{l + 1}/machine{m + 1}"
        for f in range(factories)
        for l in range(lines_per_factory)
        for m in range(machines_per_line)
    ]
    hierarchy = Hierarchy.from_site_paths(
        sites,
        root="hq",
        level_names=["factory", "line", "machine"],
        deadlines=[EDGE_DEADLINE, LINE_DEADLINE, MACHINE_DEADLINE],
    )
    levels = {
        "machine": LevelConfig(
            aggregator="flowtree",
            node_budget=machine_node_budget,
            retain_partitions=retain_partitions,
        ),
        "line": LevelConfig(
            aggregator="flowtree",
            node_budget=line_node_budget,
            retain_partitions=retain_partitions,
        ),
        "factory": LevelConfig(
            aggregator="flowtree", node_budget=factory_node_budget
        ),
    }
    return HierarchyRuntime(
        hierarchy,
        levels,
        schema=schema,
        policy=policy,
        epoch_seconds=epoch_seconds,
        merge_node_budget=merge_node_budget,
        faults=faults,
        retry_policy=retry_policy,
        observability=observability,
        storage=storage,
    )
