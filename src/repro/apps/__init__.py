"""Applications: the decision logic of the architecture (Section III.A).

"Each application embodies the decision logic for a single purpose" —
long-running or interactive, local or global.  The applications here
are the ones the paper's use-case sections call out:

Smart factory (Section II.A):
  * :class:`~repro.apps.predictive_maintenance.PredictiveMaintenanceApp`
  * :class:`~repro.apps.process_mining.ProcessMiningApp`

Network monitoring (Section II.B):
  * :class:`~repro.apps.trends.NetworkTrendsApp`
  * :class:`~repro.apps.traffic_matrix.TrafficMatrixApp`
  * :class:`~repro.apps.ddos.DDoSInvestigationApp`
"""

from repro.apps.base import Application, AppReport
from repro.apps.predictive_maintenance import (
    MaintenanceDecision,
    PredictiveMaintenanceApp,
)
from repro.apps.process_mining import ProcessMiningApp, LineEfficiency
from repro.apps.trends import NetworkTrendsApp, TrendReport
from repro.apps.traffic_matrix import TrafficMatrixApp
from repro.apps.ddos import DDoSInvestigationApp, DDoSFinding

__all__ = [
    "Application",
    "AppReport",
    "PredictiveMaintenanceApp",
    "MaintenanceDecision",
    "ProcessMiningApp",
    "LineEfficiency",
    "NetworkTrendsApp",
    "TrendReport",
    "TrafficMatrixApp",
    "DDoSInvestigationApp",
    "DDoSFinding",
]
