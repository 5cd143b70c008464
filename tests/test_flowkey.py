"""Unit tests for schemas, flow keys, and generalization policies."""

import pytest

from repro.errors import GranularityError, SchemaError
from repro.flows.features import PortFeature, parse_ipv4
from repro.flows.flowkey import (
    DST_IP_PORT,
    FIVE_TUPLE,
    SRC_DST,
    FeatureSchema,
    FlowKey,
    GeneralizationPolicy,
)


class TestSchema:
    def test_five_tuple_features(self):
        names = [f.name for f in FIVE_TUPLE.features]
        assert names == ["proto", "src_ip", "dst_ip", "src_port", "dst_port"]

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema("bad", (PortFeature("p"), PortFeature("p")))

    def test_index_of_unknown(self):
        with pytest.raises(SchemaError):
            FIVE_TUPLE.index_of("nope")

    def test_key_builder_with_text_values(self):
        key = FIVE_TUPLE.key(
            proto="tcp",
            src_ip="10.0.0.1",
            dst_ip="10.0.0.2",
            src_port=1,
            dst_port=2,
        )
        assert key.feature_value("proto") == 6
        assert key.feature_value("src_ip") == parse_ipv4("10.0.0.1")
        assert key.levels == key.schema.max_levels()

    def test_key_builder_missing_feature(self):
        with pytest.raises(SchemaError):
            FIVE_TUPLE.key(proto=6)

    def test_key_builder_unknown_feature(self):
        with pytest.raises(SchemaError):
            SRC_DST.key(src_ip="1.2.3.4", dst_ip="5.6.7.8", extra=1)

class TestFlowKey:
    def test_values_masked_on_construction(self):
        key = FlowKey(
            SRC_DST,
            (parse_ipv4("10.1.2.3"), parse_ipv4("10.9.9.9")),
            (24, 0),
        )
        assert key.feature_value("src_ip") == parse_ipv4("10.1.2.0")
        assert key.feature_value("dst_ip") == 0

    def test_equal_keys_hash_equal(self):
        a = SRC_DST.key(src_ip="1.2.3.4", dst_ip="5.6.7.8")
        b = SRC_DST.key(src_ip="1.2.3.4", dst_ip="5.6.7.8")
        assert a == b
        assert hash(a) == hash(b)

    def test_generalize(self):
        key = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6")
        general = key.generalize("src_ip", 8)
        assert general.feature_level("src_ip") == 8
        assert general.feature_value("src_ip") == parse_ipv4("10.0.0.0")

    def test_generalize_cannot_specialize(self):
        key = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6").generalize(
            "src_ip", 8
        )
        with pytest.raises(GranularityError):
            key.generalize("src_ip", 24)

    def test_contains_prefix(self):
        specific = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6")
        prefix = specific.generalize("src_ip", 8).generalize("dst_ip", 0)
        assert prefix.contains(specific)
        assert not specific.contains(prefix)
        assert prefix.contains(prefix)

    def test_contains_rejects_other_prefix(self):
        a = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6").generalize(
            "src_ip", 8
        )
        other = SRC_DST.key(src_ip="11.1.2.3", dst_ip="10.4.5.6")
        assert not a.contains(other)

    def test_contains_requires_same_schema(self):
        a = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6")
        b = DST_IP_PORT.key(dst_ip="10.4.5.6", dst_port=80)
        assert not a.contains(b)

    def test_fully_general(self):
        key = SRC_DST.key(src_ip="10.1.2.3", dst_ip="10.4.5.6")
        root = FlowKey(SRC_DST, key.values, (0, 0))
        assert root.values == (0, 0)  # construction masks every value

    def test_str_rendering(self):
        key = FIVE_TUPLE.key(
            proto="tcp",
            src_ip="10.1.2.3",
            dst_ip="10.4.5.6",
            src_port=1,
            dst_port=443,
        )
        text = str(key)
        assert "proto=tcp" in text
        assert "src_ip=10.1.2.3" in text

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            FlowKey(SRC_DST, (1, 2, 3), (32, 32, 32))


class TestPolicy:
    def test_default_five_tuple_depth(self, policy):
        # 4 steps x 2 IPs + 1 proto + 2 steps x 2 ports = 13
        assert policy.depth == 13

    def test_root_and_leaf_vectors(self, policy):
        assert policy.levels_at(0) == (0, 0, 0, 0, 0)
        assert policy.levels_at(policy.depth) == FIVE_TUPLE.max_levels()

    def test_depth_of_roundtrip(self, policy):
        for depth in range(policy.depth + 1):
            assert policy.depth_of(policy.levels_at(depth)) == depth

    def test_depth_of_off_chain(self, policy):
        assert policy.depth_of((8, 0, 0, 0, 0)) is None

    def test_projection_nests(self, policy, make_key):
        key = make_key()
        deep = policy.project(key.values, policy.depth)
        for depth in range(policy.depth):
            direct = policy.project(key.values, depth)
            via_deep = policy.project(deep, depth)
            assert direct == via_deep

    def test_shallowest_covering_depth(self, policy):
        # asking for dst_port fully specific forces the leaf level
        levels = [0, 0, 0, 0, 16]
        depth = policy.shallowest_covering_depth(levels)
        vector = policy.levels_at(depth)
        assert all(v >= l for v, l in zip(vector, levels))
        # asking for nothing is satisfied at the root
        assert policy.shallowest_covering_depth([0, 0, 0, 0, 0]) == 0

    def test_nearest_depth_at_or_above(self, policy):
        assert policy.nearest_depth_at_or_above([0, 0, 0, 0, 0]) == 0
        assert (
            policy.nearest_depth_at_or_above(list(FIVE_TUPLE.max_levels()))
            == policy.depth
        )

    def test_build_rejects_non_specializing_step(self):
        with pytest.raises(GranularityError):
            GeneralizationPolicy.build(
                SRC_DST, [("src_ip", 8), ("src_ip", 8)]
            )

    def test_build_completes_chain(self):
        policy = GeneralizationPolicy.build(SRC_DST, [("src_ip", 8)])
        assert policy.level_vectors[-1] == SRC_DST.max_levels()

    def test_vectors_must_start_at_root(self):
        with pytest.raises(GranularityError):
            GeneralizationPolicy(SRC_DST, [(8, 0), (32, 32)])

    def test_vectors_must_end_fully_specific(self):
        with pytest.raises(GranularityError):
            GeneralizationPolicy(SRC_DST, [(0, 0), (8, 0)])

    def test_duplicate_vectors_rejected(self):
        with pytest.raises(GranularityError):
            GeneralizationPolicy(
                SRC_DST, [(0, 0), (0, 0), (32, 32)]
            )

    def test_compatibility(self, policy):
        other = GeneralizationPolicy.default_for(FIVE_TUPLE)
        assert policy.compatible_with(other)
        src_dst = GeneralizationPolicy.default_for(SRC_DST)
        assert not policy.compatible_with(src_dst)

    def test_key_at_projects(self, policy, make_key):
        key = make_key()
        mid = policy.key_at(key, 4)
        assert policy.depth_of(mid.levels) == 4
        assert mid.contains(key)
