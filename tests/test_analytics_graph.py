"""Tests for graph analysis over flow summaries."""

import pytest

from repro.analytics.graph import (
    communication_graph,
    demand_weighted_link_load,
    hierarchy_choke_points,
    top_talkers,
    traffic_communities,
)
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.hierarchy.network import NetworkFabric
from repro.hierarchy.topology import smart_factory_hierarchy


@pytest.fixture()
def tree(policy, make_key):
    tree = Flowtree(policy, node_budget=None)
    # cluster 1: 10/8 <-> 20/8, heavy
    tree.add(
        make_key(src_ip="10.0.0.1", dst_ip="20.0.0.1"), Score(1, 5000, 1)
    )
    tree.add(
        make_key(src_ip="10.0.0.2", dst_ip="20.0.0.9", src_port=2),
        Score(1, 3000, 1),
    )
    # cluster 2: 30/8 <-> 40/8, light
    tree.add(
        make_key(src_ip="30.0.0.1", dst_ip="40.0.0.1"), Score(1, 100, 1)
    )
    return tree


class TestCommunicationGraph:
    def test_edges_aggregate_prefix_pairs(self, tree):
        graph = communication_graph(tree, prefix_level=8)
        assert graph.has_edge("10.0.0.0/8", "20.0.0.0/8")
        assert graph["10.0.0.0/8"]["20.0.0.0/8"]["weight"] == 8000
        assert graph["30.0.0.0/8"]["40.0.0.0/8"]["weight"] == 100

    def test_min_edge_weight_filters(self, tree):
        graph = communication_graph(tree, prefix_level=8,
                                    min_edge_weight=1000)
        assert graph.has_edge("10.0.0.0/8", "20.0.0.0/8")
        assert not graph.has_edge("30.0.0.0/8", "40.0.0.0/8")

    def test_works_on_merged_trees(self, tree, policy, make_key):
        other = Flowtree(policy, node_budget=None)
        other.add(
            make_key(src_ip="10.9.9.9", dst_ip="20.9.9.9", src_port=7),
            Score(1, 2000, 1),
        )
        merged = Flowtree.union([((0.0, "a"), tree), ((0.0, "b"), other)])
        graph = communication_graph(merged, prefix_level=8)
        assert graph["10.0.0.0/8"]["20.0.0.0/8"]["weight"] == 10000


class TestTopTalkers:
    def test_ranked_by_weighted_degree(self, tree):
        graph = communication_graph(tree, prefix_level=8)
        talkers = top_talkers(graph, k=2)
        names = [name for name, _ in talkers]
        assert set(names) == {"10.0.0.0/8", "20.0.0.0/8"}
        assert talkers[0][1] == 8000

    def test_k_bounds(self, tree):
        graph = communication_graph(tree, prefix_level=8)
        assert len(top_talkers(graph, k=100)) == graph.number_of_nodes()


class TestCommunities:
    def test_two_clusters(self, tree):
        graph = communication_graph(tree, prefix_level=8)
        communities = traffic_communities(graph)
        assert len(communities) == 2
        assert ["10.0.0.0/8", "20.0.0.0/8"] in communities
        assert ["30.0.0.0/8", "40.0.0.0/8"] in communities

    def test_threshold_splits(self, tree):
        graph = communication_graph(tree, prefix_level=8)
        communities = traffic_communities(graph, min_edge_weight=1000)
        assert ["10.0.0.0/8", "20.0.0.0/8"] in communities
        assert len(communities) == 1  # the light pair fell apart


class TestHierarchyGraphs:
    def test_choke_points_surface_wan(self):
        hierarchy = smart_factory_hierarchy(factories=2)
        fabric = NetworkFabric(hierarchy)
        choke = hierarchy_choke_points(fabric, k=2)
        top_edges = {frozenset(edge) for edge, _ in choke}
        # the root's links (the slow WAN) must rank highest
        assert any("hq" in edge for edge in top_edges for edge in edge)
        assert choke[0][1] >= choke[1][1]

    def test_demand_projection(self):
        hierarchy = smart_factory_hierarchy(factories=2)
        fabric = NetworkFabric(hierarchy)
        loads = demand_weighted_link_load(
            fabric,
            {"hq/factory1/line1": 100.0, "hq/factory2/line1": 50.0},
        )
        assert loads[("hq", "hq/factory1")] == 100.0
        assert loads[("hq", "hq/factory2")] == 50.0
        assert loads[("hq/factory1", "hq/factory1/line1")] == 100.0

    def test_unknown_sites_ignored(self):
        hierarchy = smart_factory_hierarchy(factories=1)
        fabric = NetworkFabric(hierarchy)
        loads = demand_weighted_link_load(fabric, {"nowhere/x": 10.0})
        assert loads == {}
