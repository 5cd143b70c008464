"""Tests for privacy/security enforcement (Section III.C)."""

import pytest

from repro.core.flowtree import FlowtreePrimitive
from repro.core.sampling import RandomSamplePrimitive
from repro.core.summary import Location
from repro.core.timebin import TimeBinStatistics
from repro.datastore.privacy import (
    AuthorizationContext,
    ExportRule,
    PrivacyGuard,
    PrivacyPolicy,
    PrivacyViolation,
)
from repro.flows.records import FlowRecord

LOC = Location("cloud/region1/router1")


@pytest.fixture()
def flowtree_summary(policy, make_key):
    primitive = FlowtreePrimitive(LOC, policy, node_budget=None)
    for index in range(10):
        record = FlowRecord(
            key=make_key(src_ip=f"203.0.113.{index + 1}", src_port=1000 + index),
            packets=5,
            bytes=500,
            first_seen=float(index),
            last_seen=float(index) + 1,
        )
        primitive.ingest(record, record.first_seen)
    return primitive.summary()


class TestExportGate:
    def test_blocked_aggregator(self, flowtree_summary):
        guard = PrivacyGuard(
            PrivacyPolicy(rules={"secret": ExportRule(shareable=False)})
        )
        with pytest.raises(PrivacyViolation):
            guard.export("secret", flowtree_summary)
        assert guard.audit_log[-1].allowed is False

    def test_default_rule_applies(self, flowtree_summary):
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(shareable=False))
        )
        with pytest.raises(PrivacyViolation):
            guard.export("anything", flowtree_summary)

    def test_unrestricted_passthrough(self, flowtree_summary):
        guard = PrivacyGuard(PrivacyPolicy())
        exported = guard.export("ft", flowtree_summary)
        assert exported is flowtree_summary
        assert guard.audit_log[-1].degraded is False


class TestFlowtreeAnonymization:
    def test_ips_truncated(self, flowtree_summary):
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=16))
        )
        exported = guard.export("ft", flowtree_summary)
        tree = exported.payload
        for node in tree.nodes():
            for feature_name in ("src_ip", "dst_ip"):
                level = tree.key_of(node).feature_level(feature_name)
                assert level <= 16
        assert exported.attrs["anonymized_to_prefix"] == 16

    def test_mass_preserved(self, flowtree_summary):
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=8))
        )
        exported = guard.export("ft", flowtree_summary)
        assert exported.payload.total() == flowtree_summary.payload.total()

    def test_original_untouched(self, flowtree_summary, make_key):
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=8))
        )
        guard.export("ft", flowtree_summary)
        specific = make_key(src_ip="203.0.113.1", src_port=1000)
        assert flowtree_summary.payload.query(specific).bytes == 500

    def test_prefix_queries_still_work(self, flowtree_summary, make_key):
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_ip_prefix=8))
        )
        exported = guard.export("ft", flowtree_summary)
        prefix = make_key(src_ip="203.0.0.0", levels=(0, 8, 0, 0, 0))
        assert exported.payload.query(prefix).bytes == 10 * 500


class TestTimebinCoarsening:
    def test_bins_widened(self):
        primitive = TimeBinStatistics(LOC, bin_seconds=1.0)
        for t in range(120):
            primitive.ingest(float(t), float(t))
        summary = primitive.summary()
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_bin_seconds=60.0))
        )
        exported = guard.export("temps", summary)
        assert exported.attrs["bin_seconds"] == 60.0
        assert len(exported.payload) == 2
        total = sum(stats.count for stats in exported.payload.values())
        assert total == 120

    def test_already_coarse_passthrough(self):
        primitive = TimeBinStatistics(LOC, bin_seconds=300.0)
        primitive.ingest(1.0, 0.0)
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(min_bin_seconds=60.0))
        )
        exported = guard.export("temps", primitive.summary())
        assert exported.attrs["bin_seconds"] == 300.0


class TestSampleThinning:
    def test_rate_capped(self):
        primitive = RandomSamplePrimitive(LOC, rate=1.0, seed=1)
        for t in range(1000):
            primitive.ingest(1.0, float(t))
        guard = PrivacyGuard(
            PrivacyPolicy(default=ExportRule(max_sample_rate=0.1))
        )
        exported = guard.export("sample", primitive.summary())
        assert exported.attrs["rate"] == 0.1
        assert len(exported.payload) < 250


class TestDegradationIsDeterministic:
    """A degraded view is a function of the summary alone: it does not
    depend on what the guard exported before."""

    @staticmethod
    def timebin():
        primitive = TimeBinStatistics(LOC, bin_seconds=1.0)
        for t in range(600):
            for step in range(4):
                primitive.ingest(float(t * 4 + step), float(t) + step / 4)
        return primitive.summary(), ExportRule(min_bin_seconds=60.0)

    @staticmethod
    def sample():
        primitive = RandomSamplePrimitive(LOC, rate=1.0, seed=1)
        for t in range(1000):
            primitive.ingest(float(t), float(t))
        return primitive.summary(), ExportRule(max_sample_rate=0.1)

    @pytest.mark.parametrize("make", ["timebin", "sample"])
    def test_same_summary_degrades_identically(self, make):
        summary, rule = getattr(self, make)()
        other, _ = getattr(self, make)()
        guard = PrivacyGuard(PrivacyPolicy(default=rule))
        first = guard.export("agg", summary)
        guard.export("agg", other)
        again = guard.export("agg", summary)
        assert first.payload is not summary.payload
        assert first.payload == again.payload
        assert first.attrs == again.attrs
        assert first.size_bytes == again.size_bytes


class TestAuthorization:
    def test_role_required(self):
        context = AuthorizationContext("operator", frozenset({"read"}))
        context.require("read")
        with pytest.raises(PrivacyViolation):
            context.require("admin")
