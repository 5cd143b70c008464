"""Sensor and actuator processes.

Sensors stand in for the physical devices of Section II: scalar sensors
(temperature, vibration, current draw) produce a numeric reading at a
fixed rate; camera sensors are modelled only by their byte rate — exactly
the two cited rates (a 3D camera at 52 GB/h, an HD camera at 17.5 GB/h)
that motivate aggregation close to the machine.

An :class:`Actuator` is the other end of the control loop: the
controller sends it commands and it records them with latency, which is
how the benchmarks measure the Figure 3 control cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.summary import Location

#: Data rates cited in Section II.A (bytes per hour, uncompressed).
BYTES_3D_CAMERA_PER_HOUR = 52 * 10**9
BYTES_HD_CAMERA_PER_HOUR = int(17.5 * 10**9)


@dataclass(frozen=True)
class SensorReading:
    """One sensor emission: a value plus its size in bytes."""

    sensor_id: str
    location: Location
    timestamp: float
    value: float
    size_bytes: int


class ScalarSensor:
    """A numeric sensor with a value model plus Gaussian noise.

    ``value_fn(t)`` gives the noiseless physical value at time ``t`` —
    the factory workload plugs machine degradation in here.
    """

    def __init__(
        self,
        sensor_id: str,
        location: Location,
        rate_hz: float,
        value_fn: Callable[[float], float],
        noise_std: float = 0.0,
        bytes_per_reading: int = 16,
        seed: Optional[int] = None,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError(f"sensor rate must be positive, got {rate_hz}")
        self.sensor_id = sensor_id
        self.location = location
        self.rate_hz = rate_hz
        self.value_fn = value_fn
        self.noise_std = noise_std
        self.bytes_per_reading = bytes_per_reading
        self._rng = random.Random(seed)

    def reading_at(self, timestamp: float) -> SensorReading:
        """Synthesize the reading for time ``timestamp``."""
        value = self.value_fn(timestamp)
        if self.noise_std > 0:
            value += self._rng.gauss(0.0, self.noise_std)
        return SensorReading(
            sensor_id=self.sensor_id,
            location=self.location,
            timestamp=timestamp,
            value=value,
            size_bytes=self.bytes_per_reading,
        )

    def bytes_per_second(self) -> float:
        """The sensor's raw data rate."""
        return self.rate_hz * self.bytes_per_reading


class CameraSensor:
    """An opaque high-volume sensor characterized by its byte rate.

    Frames carry no analyzable value; what matters to the architecture
    is the data volume that must be filtered or aggregated near the
    source (Table I, challenges 1 and 3).
    """

    def __init__(
        self,
        sensor_id: str,
        location: Location,
        bytes_per_hour: int = BYTES_HD_CAMERA_PER_HOUR,
    ) -> None:
        self.sensor_id = sensor_id
        self.location = location
        self.bytes_per_hour = bytes_per_hour

    def bytes_per_second(self) -> float:
        """The camera's raw data rate."""
        return self.bytes_per_hour / 3600.0


@dataclass
class ActuationCommand:
    """One command received by an actuator."""

    command: str
    issued_at: float
    received_at: float
    source: str

    @property
    def latency(self) -> float:
        """Issue-to-receipt delay in simulated seconds."""
        return self.received_at - self.issued_at


@dataclass
class Actuator:
    """The physical-world end of the control loop; records commands."""

    actuator_id: str
    location: Location
    commands: List[ActuationCommand] = field(default_factory=list)

    def actuate(
        self, command: str, issued_at: float, received_at: float, source: str
    ) -> None:
        """Record an actuation command."""
        self.commands.append(
            ActuationCommand(
                command=command,
                issued_at=issued_at,
                received_at=received_at,
                source=source,
            )
        )
