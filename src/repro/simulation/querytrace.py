"""Synthetic enterprise query traces for the replication experiments.

Section VII evaluates adaptive replication "on an enterprise-level query
trace" that is not public.  What the ski-rental policies actually
consume is, per partition, the sequence of remote-access events and
their result sizes; this generator synthesizes exactly that with the
distributional structure the cited ski-rental variants assume:

* partitions are created over time (one per epoch per creating store);
* each partition receives a *run* of remote accesses whose length is
  drawn from a configurable heavy-tailed family (geometric, Pareto, or
  lognormal) — some partitions are touched once, a few are hammered;
* access result sizes vary around a per-partition mean;
* an optional diurnal factor modulates access arrival times.

Because run lengths are i.i.d. across partitions, observing completed
partitions yields the distribution the average-case-optimal threshold
needs — mirroring the paper's "aggregate result size for older
partitions ... can be used to predict future access for partitions
created at a later date."
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List


@dataclass(frozen=True)
class AccessEvent:
    """One remote access of a partition."""

    time: float
    partition_id: str
    result_bytes: int


@dataclass(frozen=True)
class QueryTraceConfig:
    """Shape of the synthetic trace."""

    partitions: int = 200
    partition_bytes: int = 50_000_000
    mean_result_bytes: int = 2_000_000
    #: ``"geometric"`` | ``"pareto"`` | ``"lognormal"``
    run_length_distribution: str = "pareto"
    #: geometric: success prob; pareto: alpha; lognormal: sigma.
    run_length_param: float = 1.3
    mean_run_length: float = 8.0
    inter_access_seconds: float = 600.0
    partition_birth_seconds: float = 300.0
    diurnal: bool = False


class QueryTraceGenerator:
    """Deterministic access-trace generator."""

    def __init__(self, config: QueryTraceConfig = QueryTraceConfig(), seed: int = 11):
        self.config = config
        self.seed = seed

    def _run_length(self, rng: random.Random) -> int:
        config = self.config
        if config.run_length_distribution == "geometric":
            p = 1.0 / max(1.0, config.mean_run_length)
            length = 1
            while rng.random() > p:
                length += 1
            return length
        if config.run_length_distribution == "pareto":
            raw = rng.paretovariate(config.run_length_param)
            scale = config.mean_run_length * (
                (config.run_length_param - 1.0) / config.run_length_param
                if config.run_length_param > 1.0
                else 1.0
            )
            return max(1, int(raw * scale))
        if config.run_length_distribution == "lognormal":
            sigma = config.run_length_param
            mu = math.log(max(1.0, config.mean_run_length)) - sigma * sigma / 2.0
            return max(1, int(rng.lognormvariate(mu, sigma)))
        raise ValueError(
            "unknown run length distribution "
            f"{config.run_length_distribution!r}"
        )

    def _diurnal_gap(self, rng: random.Random, at: float) -> float:
        gap = rng.expovariate(1.0 / self.config.inter_access_seconds)
        if not self.config.diurnal:
            return gap
        # Nights (second half of each simulated day) are 4x quieter.
        day_position = (at % 86400.0) / 86400.0
        return gap * (4.0 if day_position > 0.5 else 1.0)

    def partition_runs(self) -> Dict[str, List[AccessEvent]]:
        """Per-partition access runs, keyed by partition id."""
        rng = random.Random(self.seed)
        config = self.config
        runs: Dict[str, List[AccessEvent]] = {}
        for index in range(config.partitions):
            partition_id = f"partition-{index:05d}"
            birth = index * config.partition_birth_seconds
            length = self._run_length(rng)
            events: List[AccessEvent] = []
            at = birth
            for _ in range(length):
                at += self._diurnal_gap(rng, at)
                result = max(
                    1024,
                    int(rng.gauss(config.mean_result_bytes, config.mean_result_bytes / 3)),
                )
                events.append(AccessEvent(at, partition_id, result))
            runs[partition_id] = events
        return runs

    def trace(self) -> List[AccessEvent]:
        """The full trace, time-ordered across partitions."""
        events = [
            event for run in self.partition_runs().values() for event in run
        ]
        events.sort(key=lambda e: (e.time, e.partition_id))
        return events
