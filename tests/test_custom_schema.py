"""The generalized-flow model beyond networking: a factory-event schema.

Section V demands primitives that "make use of domain knowledge to
provide meaningful levels of aggregation".  The flow model is not tied
to IP networking: any tuple of maskable features works.  This test
builds a factory-event schema (machine id with a line/machine
hierarchy encoded in its bits, event type, severity) and checks every
Flowtree operator behaves over it.
"""

import pytest

from repro.errors import SchemaMismatchError
from repro.flows.features import Feature
from repro.flows.flowkey import FeatureSchema, GeneralizationPolicy
from repro.flows.records import Score
from repro.flows.tree import Flowtree

# machine ids encode line in the high byte, machine in the low byte —
# masking to /8 aggregates machines into their line, the factory's own
# hierarchy (Table I challenge 7) expressed as a feature mask
MACHINE = Feature("machine", bits=16)
EVENT_TYPE = Feature("event_type", bits=8)
SEVERITY = Feature("severity", bits=8)

FACTORY_EVENTS = FeatureSchema(
    "factory_events", (MACHINE, EVENT_TYPE, SEVERITY)
)

#: generalize severity first, then event type, then machine -> line
POLICY = GeneralizationPolicy.build(
    FACTORY_EVENTS,
    [
        ("machine", 8),      # line level
        ("machine", 16),     # machine level
        ("event_type", 8),
        ("severity", 8),
    ],
)


def machine_id(line: int, machine: int) -> int:
    return (line << 8) | machine


def event_key(line=1, machine=1, event_type=3, severity=2):
    return FACTORY_EVENTS.key(
        machine=machine_id(line, machine),
        event_type=event_type,
        severity=severity,
    )


@pytest.fixture()
def tree():
    tree = Flowtree(POLICY, node_budget=None, metric="flows")
    # line 1: two machines with vibration events (type 3)
    tree.add(event_key(1, 1, 3, 2), Score(0, 0, 5))
    tree.add(event_key(1, 2, 3, 4), Score(0, 0, 3))
    # line 2: one machine with temperature events (type 7)
    tree.add(event_key(2, 1, 7, 1), Score(0, 0, 9))
    return tree


class TestFactoryEventTree:
    def test_machine_level_query(self, tree):
        assert tree.query(event_key(1, 1, 3, 2)).flows == 5

    def test_line_level_aggregation(self, tree):
        line1 = event_key(1, 1).with_levels((8, 0, 0))
        assert tree.query(line1).flows == 8
        line2 = event_key(2, 1).with_levels((8, 0, 0))
        assert tree.query(line2).flows == 9

    def test_group_by_event_type(self, tree):
        groups = tree.aggregate_by_feature("event_type", 8, metric="flows")
        by_type = {
            key.feature_value("event_type"): score.flows
            for key, score in groups
        }
        assert by_type == {3: 8, 7: 9}

    def test_top_k_lines(self, tree):
        top = tree.top_k(1, depth=1, metric="flows")
        assert top[0][1].flows == 9  # line 2 dominates

    def test_merge_across_shifts(self, tree):
        night = Flowtree(POLICY, node_budget=None, metric="flows")
        night.add(event_key(1, 1, 3, 2), Score(0, 0, 2))
        merged = Flowtree.union(
            [((0.0, "day"), tree), ((0.0, "night"), night)]
        )
        assert merged.query(event_key(1, 1, 3, 2)).flows == 7

    def test_diff_between_shifts(self, tree):
        later = tree.copy()
        later.add(event_key(1, 2, 3, 4), Score(0, 0, 10))
        delta = later.diff(tree)
        assert delta.query(event_key(1, 2, 3, 4)).flows == 10
        assert delta.query(event_key(1, 1, 3, 2)).flows == 0

    def test_hhh_finds_eventful_line(self, tree):
        results = tree.hhh(8, metric="flows")
        keys = [r.key for r in results]
        assert any(k.feature_level("machine") in (8, 16) for k in keys)

    def test_compression_respects_custom_policy(self):
        tree = Flowtree(POLICY, node_budget=POLICY.depth + 2, metric="flows")
        for line in range(4):
            for machine in range(8):
                tree.add(
                    event_key(line + 1, machine + 1), Score(0, 0, 1)
                )
        assert tree.node_count <= POLICY.depth + 2
        assert tree.total().flows == 32

    def test_network_tree_incompatible(self, tree, policy, make_key):
        network_tree = Flowtree(policy)
        with pytest.raises(SchemaMismatchError):
            tree.merge(network_tree)
        with pytest.raises(SchemaMismatchError):
            tree.query(make_key())

    def test_serialization_roundtrip(self, tree):
        clone = Flowtree.from_dict(tree.to_dict(), POLICY)
        assert clone.total() == tree.total()
        assert clone.query(event_key(1, 1, 3, 2)).flows == 5
