"""Privacy and security enforcement (Section III.C).

    "Privacy can be enforced, by limiting what summaries can be shared
    with the analytics component and at what granularity.  Other
    summaries and more precise data may still be used by a local
    Controller.  Security can be achieved, by encrypting data along the
    Analytics pipelines, requiring updates to the Controller to be
    certified ..., and by requiring authorization prior to interaction
    with the manager."

This module implements the data-plane half of that sentence:

* :class:`PrivacyPolicy` — per-aggregator export rules: whether a
  summary kind may leave the store at all, and the *coarsest-allowed*
  granularity it must be degraded to first.  Local consumers (the
  controller) bypass the policy; remote consumers (analytics, peer
  stores, the cloud) get the degraded view.
* :class:`PrivacyGuard` — applies a policy to a
  :class:`~repro.core.summary.DataSummary` before export, recording an
  audit trail.

Controller certification lives in :mod:`repro.control.controller`
(``require_certification``); manager authorization in
:mod:`repro.control.manager` is modeled by
:class:`AuthorizationContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.registry import default_registry
from repro.core.summary import DataSummary
from repro.errors import ReproError


class PrivacyViolation(ReproError):
    """An export was blocked by the privacy policy."""


@dataclass(frozen=True)
class ExportRule:
    """Export constraints for one aggregator (or one summary kind).

    ``shareable`` gates export entirely.  ``min_ip_prefix`` truncates
    every IPv4 feature of a Flowtree summary to at most this many
    prefix bits (e.g. 24 anonymizes hosts into /24s).  ``min_bin_seconds``
    coarsens time-binned summaries.  ``max_sample_rate`` caps how much
    of a raw sample may leave.
    """

    shareable: bool = True
    min_ip_prefix: Optional[int] = None
    min_bin_seconds: Optional[float] = None
    max_sample_rate: Optional[float] = None


@dataclass
class PrivacyPolicy:
    """Per-aggregator export rules with a default."""

    default: ExportRule = field(default_factory=ExportRule)
    rules: Dict[str, ExportRule] = field(default_factory=dict)

    def rule_for(self, aggregator: str) -> ExportRule:
        """The rule applying to one aggregator."""
        return self.rules.get(aggregator, self.default)


@dataclass(frozen=True)
class ExportAudit:
    """One audited export decision."""

    aggregator: str
    kind: str
    allowed: bool
    degraded: bool
    detail: str


class PrivacyGuard:
    """Applies a :class:`PrivacyPolicy` to outgoing summaries."""

    def __init__(self, policy: PrivacyPolicy) -> None:
        self.policy = policy
        self.audit_log: List[ExportAudit] = []

    def export(self, aggregator: str, summary: DataSummary) -> DataSummary:
        """Return the privacy-degraded view of ``summary``.

        Raises :class:`PrivacyViolation` when the aggregator's data may
        not be shared at all.  The original summary is never mutated.
        """
        rule = self.policy.rule_for(aggregator)
        if not rule.shareable:
            self.audit_log.append(
                ExportAudit(aggregator, summary.kind, False, False,
                            "blocked by policy")
            )
            raise PrivacyViolation(
                f"summaries of aggregator {aggregator!r} may not be shared"
            )
        degraded, detail = self._degrade(summary, rule)
        self.audit_log.append(
            ExportAudit(
                aggregator, summary.kind, True, degraded is not summary,
                detail,
            )
        )
        return degraded

    # -- per-kind degradation ------------------------------------------------

    def _degrade(self, summary: DataSummary, rule: ExportRule):
        if summary.kind == "flowtree" and rule.min_ip_prefix is not None:
            return self._anonymize_flowtree(summary, rule.min_ip_prefix)
        if summary.kind == "timebin" and rule.min_bin_seconds is not None:
            return self._coarsen_timebin(summary, rule.min_bin_seconds)
        if summary.kind == "sample" and rule.max_sample_rate is not None:
            return self._thin_sample(summary, rule.max_sample_rate)
        return summary, "no degradation required"

    def _anonymize_flowtree(self, summary: DataSummary, max_prefix: int):
        """Compress the tree up to the depth where every IPv4 feature is
        at most ``max_prefix`` bits specific."""
        from repro.flows.features import IPv4Feature
        from repro.flows.tree import Flowtree

        tree: Flowtree = summary.payload
        ip_indices = [
            index
            for index, feature in enumerate(tree.schema.features)
            if isinstance(feature, IPv4Feature)
        ]
        allowed_depth = 0
        for depth, vector in enumerate(tree.policy.level_vectors):
            if all(vector[i] <= max_prefix for i in ip_indices):
                allowed_depth = depth
        anonymized = Flowtree(
            tree.policy, node_budget=None, metric=tree.metric
        )
        for node in tree.nodes():
            depth = min(node.depth, allowed_depth)
            contribution = node.own + node.folded
            if contribution.is_zero():
                continue
            key = tree.policy.key_at(tree.key_of(node), depth)
            anonymized.add(key, contribution)
        degraded = DataSummary(
            kind=summary.kind,
            meta=summary.meta,
            payload=anonymized,
            size_bytes=anonymized.estimated_size_bytes(),
            attrs=dict(summary.attrs, anonymized_to_prefix=max_prefix),
        )
        return degraded, f"IPs truncated to /{max_prefix}"

    def _coarsen_timebin(self, summary: DataSummary, min_width: float):
        current = summary.attrs["bin_seconds"]
        if current >= min_width:
            return summary, "bins already coarse enough"
        width = current * max(1, int(round(min_width / current)))
        return _regranulated(summary, width), f"bins widened to {width:g} s"

    def _thin_sample(self, summary: DataSummary, max_rate: float):
        if summary.attrs["rate"] <= max_rate:
            return summary, "sample already sparse enough"
        degraded = _regranulated(summary, max_rate)
        return degraded, f"sample thinned to rate {max_rate:g}"


def _regranulated(summary: DataSummary, granularity: float) -> DataSummary:
    """``summary`` re-cut at a coarser granularity by its own kind.

    The rebuilt primitive draws from an RNG seeded by the summary's
    location and interval, so one summary always degrades the same
    way, whatever the guard exported before.
    """
    primitive = default_registry().class_of(summary.kind).from_summary(
        summary
    )
    primitive.set_granularity(granularity)
    coarse = primitive.summary()
    return replace(
        summary,
        payload=coarse.payload,
        size_bytes=coarse.size_bytes,
        attrs=dict(summary.attrs, **coarse.attrs),
    )


@dataclass(frozen=True)
class AuthorizationContext:
    """Who is talking to the manager (Section III.C's last clause).

    The manager-facing API surfaces accept a context; ``require`` is the
    single enforcement point so tests can cover the policy once.
    """

    principal: str
    roles: frozenset = frozenset()

    def require(self, role: str) -> None:
        """Raise unless the principal holds ``role``."""
        if role not in self.roles:
            raise PrivacyViolation(
                f"principal {self.principal!r} lacks role {role!r}"
            )
