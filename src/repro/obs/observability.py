"""The single handle instrumented code holds: registry + tracer.

:class:`Observability` bundles one :class:`~repro.obs.metrics.
MetricsRegistry` and one :class:`~repro.obs.tracing.Tracer` behind an
``enabled`` flag.  The runtime, planner, and fabric take this object
(or build an enabled one by default) and never check the flag
themselves: a disabled instance hands out no-op spans and keeps the
registry empty of collectors, so the disabled path is the honest
uninstrumented baseline (``tests/test_obs.py`` pins it identical).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


class Observability:
    """Metrics registry and tracer for one runtime instance."""

    def __init__(
        self,
        enabled: bool = True,
        max_traces: int = 64,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=enabled, max_traces=max_traces)

    @classmethod
    def disabled(cls) -> "Observability":
        """An instance whose spans are no-ops and registry stays idle."""
        return cls(enabled=False)

    def span(self, name: str, **attrs):
        """Open a span (no-op context when disabled)."""
        return self.tracer.span(name, **attrs)

    def observe(self, family_name: str, value: float, **labels) -> None:
        """Record one histogram observation, if enabled and registered.

        Event-fed histograms (rollup/query/ingest latency) funnel
        through here so call sites stay one line and the disabled path
        costs a single attribute check.
        """
        if not self.enabled:
            return
        family = self.registry.get(family_name)
        if family is not None:
            family.labels(**labels).observe(value)
