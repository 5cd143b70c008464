"""The Analytics building block (Figure 2a, "transfer & process").

The paper treats analytics as a pluggable toolset between data stores
and applications.  This package supplies communication-graph analytics
and lightweight inference blocks (EWMA
anomaly scores, linear trends, CUSUM change detection,
time-to-threshold forecasts) that the example applications build on.
"""

from repro.analytics.inference import (
    CusumDetector,
    EwmaAnomalyDetector,
    LinearTrend,
    time_to_threshold,
)
from repro.analytics.graph import (
    communication_graph,
    demand_weighted_link_load,
    hierarchy_choke_points,
    top_talkers,
    traffic_communities,
)

__all__ = [
    "EwmaAnomalyDetector",
    "CusumDetector",
    "LinearTrend",
    "time_to_threshold",
    "communication_graph",
    "top_talkers",
    "traffic_communities",
    "hierarchy_choke_points",
    "demand_weighted_link_load",
]
