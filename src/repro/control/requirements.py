"""Application requirements: what apps tell the Manager (Figure 3b).

"For each application, it records the application requirements in terms
of the required data source and aggregation format (e.g., sample or
histogram) and the required precision (e.g., sample rate or bin size)."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.core.registry import default_registry
from repro.core.summary import Location


@dataclass(frozen=True)
class ApplicationRequirement:
    """One application's demand for aggregated data.

    ``kind`` names a registered computing primitive ("sample",
    "timebin", "flowtree", …); ``config`` parameterizes it;
    ``precision`` is the kind-specific granularity the application needs
    (sampling rate, bin seconds, node budget, ``k``, byte budget …) and
    overrides the config default when given.  ``stream_prefix`` narrows
    the subscription to matching stream ids.
    """

    app_name: str
    aggregator_name: str
    kind: str
    location: Location
    config: Dict[str, Any] = field(default_factory=dict)
    precision: Optional[float] = None
    stream_prefix: Optional[str] = None

    def effective_config(self) -> Dict[str, Any]:
        """The primitive config with precision folded into the kind's
        granularity knob (:attr:`ComputingPrimitive.granularity_param`)."""
        config = dict(self.config)
        if self.precision is None:
            return config
        kind = default_registry().class_of(self.kind)
        if kind.granularity_param is not None:
            config[kind.granularity_param] = (
                int(self.precision)
                if kind.granularity_is_count
                else self.precision
            )
        return config
