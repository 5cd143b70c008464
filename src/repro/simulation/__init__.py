"""Workload generation.

The paper's evaluation targets — factory sensor floods, router flow
exports, and the enterprise query trace used for replication — are not
shippable datasets, so this package synthesizes them (see DESIGN.md §4
for the substitution argument).  There is no event queue: time is a
stepped loop owned by whoever drives a workload —
:meth:`~repro.scenarios.factory.FactoryScenario.run` steps the factory's
clock and :func:`~repro.simulation.traffic.drive` steps traffic epochs.

* :mod:`repro.simulation.sensors` — sensor and actuator models,
  including the paper's cited 3D-camera (52 GB/h) and HD-camera
  (17.5 GB/h) data rates.
* :mod:`repro.simulation.factory` — a smart-factory workload: production
  lines of machines whose mechanics degrade over time.
* :mod:`repro.simulation.traffic` — Zipf-distributed 5-tuple traffic per
  router with 1-in-N packet sampling.
* :mod:`repro.simulation.querytrace` — partition access traces with
  heavy-tailed per-partition access runs, for the replication benchmarks.
"""

from repro.simulation.sensors import (
    Actuator,
    CameraSensor,
    ScalarSensor,
    SensorReading,
    BYTES_3D_CAMERA_PER_HOUR,
    BYTES_HD_CAMERA_PER_HOUR,
)
from repro.simulation.factory import (
    FactoryWorkload,
    Machine,
    MachineState,
    build_factory,
)
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.simulation.querytrace import (
    AccessEvent,
    QueryTraceConfig,
    QueryTraceGenerator,
)

__all__ = [
    "SensorReading",
    "ScalarSensor",
    "CameraSensor",
    "Actuator",
    "BYTES_3D_CAMERA_PER_HOUR",
    "BYTES_HD_CAMERA_PER_HOUR",
    "Machine",
    "MachineState",
    "FactoryWorkload",
    "build_factory",
    "TrafficConfig",
    "TrafficGenerator",
    "AccessEvent",
    "QueryTraceConfig",
    "QueryTraceGenerator",
]
