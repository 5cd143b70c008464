"""Smart-factory workload (Section II.A).

Machines on production lines carry vibration, temperature, and current
sensors whose means drift as the machine's mechanics degrade.  Wear
accumulates with operating time (plus per-machine rate variation); past
a failure threshold the machine breaks, which is the ground truth the
predictive-maintenance application tries to anticipate.  A maintenance
action resets wear — the factory's actuator-visible effect.

The workload is fully deterministic for a given seed so tests and
benchmarks are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List

from repro.core.summary import Location
from repro.simulation.sensors import (
    BYTES_3D_CAMERA_PER_HOUR,
    CameraSensor,
    ScalarSensor,
)


class MachineState(Enum):
    """Operational state of one machine."""

    RUNNING = "running"
    FAILED = "failed"
    MAINTENANCE = "maintenance"


#: Wear level at which a machine fails.
FAILURE_WEAR = 1.0
#: Vibration (mm/s RMS) of a healthy machine; grows with wear.
BASE_VIBRATION = 2.0
#: Extra vibration at the failure threshold.
WEAR_VIBRATION_GAIN = 6.0
#: Operating temperature (deg C) of a healthy machine.
BASE_TEMPERATURE = 45.0
WEAR_TEMPERATURE_GAIN = 25.0


class Machine:
    """One machine: wear dynamics plus attached sensors."""

    def __init__(
        self,
        machine_id: str,
        location: Location,
        wear_rate_per_hour: float,
        seed: int,
        sensor_rate_hz: float = 10.0,
    ) -> None:
        self.machine_id = machine_id
        self.location = location
        self.wear_rate_per_hour = wear_rate_per_hour
        self.state = MachineState.RUNNING
        self.wear = 0.0
        self._wear_updated_at = 0.0
        self.failures: List[float] = []
        self.maintenances: List[float] = []
        rng = random.Random(seed)
        self.vibration_sensor = ScalarSensor(
            sensor_id=f"{machine_id}/vibration",
            location=location,
            rate_hz=sensor_rate_hz,
            value_fn=self._vibration_at,
            noise_std=0.15,
            seed=rng.randrange(2**31),
        )
        self.temperature_sensor = ScalarSensor(
            sensor_id=f"{machine_id}/temperature",
            location=location,
            rate_hz=max(1.0, sensor_rate_hz / 10.0),
            value_fn=self._temperature_at,
            noise_std=0.5,
            seed=rng.randrange(2**31),
        )

    # -- wear dynamics ------------------------------------------------------

    def _advance_wear(self, timestamp: float) -> None:
        if self.state is MachineState.RUNNING:
            elapsed_hours = (timestamp - self._wear_updated_at) / 3600.0
            self.wear += elapsed_hours * self.wear_rate_per_hour
            if self.wear >= FAILURE_WEAR:
                self.wear = FAILURE_WEAR
                self.state = MachineState.FAILED
                self.failures.append(timestamp)
        self._wear_updated_at = timestamp

    def wear_at(self, timestamp: float) -> float:
        """Current wear in [0, 1], advancing the internal model."""
        self._advance_wear(timestamp)
        return self.wear

    def _vibration_at(self, timestamp: float) -> float:
        wear = self.wear_at(timestamp)
        return BASE_VIBRATION + WEAR_VIBRATION_GAIN * wear * wear

    def _temperature_at(self, timestamp: float) -> float:
        wear = self.wear_at(timestamp)
        return BASE_TEMPERATURE + WEAR_TEMPERATURE_GAIN * wear

    def perform_maintenance(self, timestamp: float) -> None:
        """Reset wear; the machine resumes running."""
        self._advance_wear(timestamp)
        self.wear = 0.0
        self.state = MachineState.RUNNING
        self.maintenances.append(timestamp)

    @property
    def sensors(self) -> List[ScalarSensor]:
        """All scalar sensors on the machine."""
        return [self.vibration_sensor, self.temperature_sensor]


@dataclass
class FactoryWorkload:
    """A factory: lines of machines plus line-level cameras."""

    root: Location
    lines: Dict[str, List[Machine]] = field(default_factory=dict)
    cameras: List[CameraSensor] = field(default_factory=list)

    @property
    def machines(self) -> List[Machine]:
        """All machines across all lines."""
        return [machine for line in self.lines.values() for machine in line]

    def raw_bytes_per_second(self) -> float:
        """Aggregate raw data rate of every sensor in the factory."""
        total = sum(
            sensor.bytes_per_second()
            for machine in self.machines
            for sensor in machine.sensors
        )
        total += sum(camera.bytes_per_second() for camera in self.cameras)
        return total

    def sensor_count(self) -> int:
        """Number of devices producing data streams (Table I, ch. 2)."""
        return sum(len(m.sensors) for m in self.machines) + len(self.cameras)


def build_factory(
    name: str = "factory1",
    lines: int = 3,
    machines_per_line: int = 8,
    cameras_per_line: int = 1,
    sensor_rate_hz: float = 10.0,
    seed: int = 7,
) -> FactoryWorkload:
    """Construct a deterministic factory workload.

    Machines get wear rates spread around one failure per ~50 operating
    hours so that multi-hour simulations contain both healthy and
    degrading machines.
    """
    rng = random.Random(seed)
    root = Location(name)
    workload = FactoryWorkload(root=root)
    for line_index in range(lines):
        line_name = f"line{line_index + 1}"
        line_location = root.child(line_name)
        machines: List[Machine] = []
        for machine_index in range(machines_per_line):
            machine_id = f"{name}/{line_name}/machine{machine_index + 1}"
            machine = Machine(
                machine_id=machine_id,
                location=line_location.child(f"machine{machine_index + 1}"),
                wear_rate_per_hour=rng.uniform(0.005, 0.05),
                seed=rng.randrange(2**31),
                sensor_rate_hz=sensor_rate_hz,
            )
            machines.append(machine)
        workload.lines[line_name] = machines
        for camera_index in range(cameras_per_line):
            workload.cameras.append(
                CameraSensor(
                    sensor_id=f"{name}/{line_name}/camera{camera_index + 1}",
                    location=line_location,
                    bytes_per_hour=BYTES_3D_CAMERA_PER_HOUR,
                )
            )
    return workload
