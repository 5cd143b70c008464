"""Tunables of the sharded ingest pool."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ParallelIngestConfig:
    """How a :class:`~repro.parallel.pool.ShardedIngestPool` is sized.

    ``workers`` is an upper bound — the pool never spawns more workers
    than it has sites, since a worker owns whole sites (that ownership
    is what makes the trees lock-free).
    """

    workers: int = 2
    #: seconds to wait on a worker's flush reply between
    #: liveness checks; a dead worker is respawned and replayed
    poll_seconds: float = 0.5
    #: give up on an unresponsive-but-alive worker after this long
    flush_timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("parallel ingest needs at least 1 worker")
