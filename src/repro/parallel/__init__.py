"""Process-parallel sharded ingest (the multi-core half of fast ingest).

This package removes the single-core limit of the one ingest walk,
:meth:`~repro.flows.tree.Flowtree.add_many`.  A
:class:`ShardedIngestPool` owns one OS process per shard of ingest
sites — each worker holds its sites' Flowtrees *exclusively*, so there
is no locking anywhere on the hot path — and feeds them each
submission as one pickled batch of flat record tuples, on which the
worker runs that same walk.

Determinism is the contract: per site, workers apply exactly the batch
boundaries the caller submitted, in submission order, so the resulting
trees (and every downstream number: root mass, WAN bytes, volume
accounting) are bit-identical to serial ingest.  A crashed worker is
respawned and its current epoch replayed from the parent's batch log,
preserving that guarantee across faults.
"""

from repro.parallel.config import ParallelIngestConfig
from repro.parallel.pool import (
    ShardedIngestPool,
    SiteShardSpec,
    WorkerStats,
)

__all__ = [
    "ParallelIngestConfig",
    "ShardedIngestPool",
    "SiteShardSpec",
    "WorkerStats",
]
