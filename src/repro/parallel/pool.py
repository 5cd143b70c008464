"""The sharded ingest pool: per-site worker processes, one record form.

Topology: the pool owns ``min(workers, sites)`` forked worker
processes; each ingest site is assigned to exactly one worker
(round-robin), and that worker holds the site's Flowtree *exclusively*
— no locks, no shared mutable state, the paper's shard-per-core recipe.

Transport: a submission is one pickled ``("batch", site, items)``
message on the worker's command pipe.  ``items`` holds one flat tuple
per record, ``(key.values, key.levels, packets, bytes, flows,
timestamp)``; the worker rebuilds ``(FlowKey, Score)`` pairs and runs
the one ingest walk, :meth:`~repro.flows.tree.Flowtree.add_many`.
Every record is checked (record type, key schema, canonical levels)
while its tuple is built, so a batch serial ingest would reject is
rejected at :meth:`ShardedIngestPool.submit` — before anything is
shipped or logged — and never reaches a worker.  The only shared
memory is a 64-byte block per worker of progress counters the worker
owns and the parent samples for :meth:`ShardedIngestPool.worker_stats`.

Determinism: per site, the worker applies exactly the submitted batch
boundaries in submission order, each as one ``add_many`` call, so its
tree compresses exactly like serial ingest.  ``flush()`` is the epoch
barrier: it drains every worker, returns per-site shard summaries
(``tree.to_dict()`` + epoch bookkeeping), and resets the shard trees
for the next epoch.

Fault handling: a worker that dies mid-epoch (e.g. an injected
``crash=`` fault from :class:`~repro.faults.plan.FaultPlan`) is
respawned and the parent's per-epoch log of batch messages is resent
to it in order, reproducing the lost shard state bit-for-bit; the
crash point that already fired is retired so replay completes.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import GranularityError, SchemaMismatchError, TransferError
from repro.flows.flowkey import FlowKey, GeneralizationPolicy
from repro.flows.records import FlowRecord, PacketRecord, Score
from repro.flows.tree import Flowtree
from repro.parallel.config import ParallelIngestConfig

#: exit code of an injected worker crash (distinguishes faults from bugs)
CRASH_EXIT_CODE = 17

#: int64 progress counters, the whole of each worker's shm block
_CTRL = struct.Struct("<4q")  # batches_done, records_done, busy_ns, flushes
_CTRL_BYTES = 64


@dataclass(frozen=True)
class SiteShardSpec:
    """Per-site tree parameters a worker builds its shard from."""

    node_budget: Optional[int] = 4096
    compress_ratio: float = 0.8
    metric: str = "bytes"


@dataclass
class WorkerStats:
    """One worker's progress, sampled lock-free from its shm counters."""

    worker: int
    pid: Optional[int]
    alive: bool
    sites: Tuple[str, ...]
    batches_submitted: int = 0
    records_submitted: int = 0
    batches_done: int = 0
    records_done: int = 0
    busy_seconds: float = 0.0
    queue_depth: int = 0
    restarts: int = 0
    replayed_batches: int = 0


# ----------------------------------------------------------------------
# worker side


class _SiteShard:
    """One site's exclusive state inside a worker process."""

    __slots__ = (
        "policy",
        "spec",
        "tree",
        "items",
        "epoch_start",
        "epoch_end",
        "opened_at",
        "batches",
    )

    def __init__(self, policy: GeneralizationPolicy, spec: SiteShardSpec):
        self.policy = policy
        self.spec = spec
        self.tree = self._new_tree()
        self.reset_epoch()

    def _new_tree(self) -> Flowtree:
        return Flowtree(
            self.policy,
            node_budget=self.spec.node_budget,
            compress_ratio=self.spec.compress_ratio,
            metric=self.spec.metric,
        )

    def reset_epoch(self) -> None:
        self.tree = self._new_tree()
        self.items = 0
        self.epoch_start: Optional[float] = None
        self.epoch_end: Optional[float] = None
        self.opened_at: Optional[float] = None
        self.batches = 0

    def configure(self, spec: SiteShardSpec) -> None:
        self.spec = spec
        if self.items == 0:
            self.tree = self._new_tree()
        else:
            # mid-epoch resize mirrors FlowtreePrimitive.set_granularity
            self.tree.node_budget = spec.node_budget
            if (
                spec.node_budget is not None
                and self.tree.node_count > spec.node_budget
            ):
                self.tree.compress(target_nodes=spec.node_budget)

    def apply(self, items: Sequence[Tuple]) -> int:
        """Ingest one submitted batch as one serial ``add_many`` call."""
        stamps = [item[5] for item in items]
        first, last = min(stamps), max(stamps)
        if self.opened_at is None:
            self.opened_at = stamps[0]
        if self.epoch_start is None or first < self.epoch_start:
            self.epoch_start = first
        if self.epoch_end is None or last > self.epoch_end:
            self.epoch_end = last
        self.items += len(items)
        schema = self.policy.schema
        self.tree.add_many(
            (FlowKey(schema, values, levels), Score(packets, nbytes, flows))
            for values, levels, packets, nbytes, flows, _ in items
        )
        return len(items)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "tree": self.tree.to_dict(),
            "compressions": self.tree.compressions,
            "items": self.items,
            "epoch_start": self.epoch_start,
            "epoch_end": self.epoch_end,
            "opened_at": self.opened_at,
        }


def _worker_main(
    cmd_recv,
    res_send,
    shm_name: str,
    policy: GeneralizationPolicy,
    specs: Dict[str, SiteShardSpec],
    base_epoch: int,
    crash_points: Dict[str, frozenset],
) -> None:
    """Worker loop: drain commands, own the shard trees, reply on flush."""
    # attaching re-registers the segment with the resource tracker
    # (bpo-39959), but fork children share the parent's tracker process
    # and its cache is a set, so the duplicate registration is harmless
    # — the parent's unlink clears the single entry
    shm = SharedMemory(name=shm_name)
    buf = shm.buf
    shards = {site: _SiteShard(policy, spec) for site, spec in specs.items()}
    epoch = base_epoch
    errors: List[str] = []
    batches_done = 0
    records_done = 0
    busy_ns = 0
    flushes = 0
    try:
        while True:
            message = cmd_recv.recv()
            kind = message[0]
            if kind == "batch":
                _, site, items = message
                shard = shards[site]
                crashes = crash_points.get(site)
                if crashes and (epoch, shard.batches) in crashes:
                    os._exit(CRASH_EXIT_CODE)
                shard.batches += 1
                # CPU clock, not wall clock: on an oversubscribed host
                # the worker gets descheduled mid-batch, and busy time
                # must mean "CPU spent ingesting" for records/busy to be
                # a per-core capacity rather than a time-slicing artifact
                started = time.process_time_ns()
                try:
                    records_done += shard.apply(items)
                except Exception as exc:  # surface at flush, keep draining
                    errors.append(f"{site}: {exc!r}")
                busy_ns += time.process_time_ns() - started
                batches_done += 1
                _CTRL.pack_into(
                    buf, 0, batches_done, records_done, busy_ns, flushes
                )
            elif kind == "config":
                _, site, spec = message
                shards[site].configure(spec)
            elif kind == "flush":
                summaries = {
                    site: shard.snapshot()
                    for site, shard in shards.items()
                    if shard.items
                }
                res_send.send(("flushed", message[1], summaries, errors))
                errors = []
                for shard in shards.values():
                    shard.reset_epoch()
                epoch += 1
                flushes += 1
                _CTRL.pack_into(
                    buf, 0, batches_done, records_done, busy_ns, flushes
                )
            elif kind == "stop":
                break
    except (EOFError, KeyboardInterrupt):  # parent went away
        pass
    finally:
        del buf
        shm.close()


# ----------------------------------------------------------------------
# parent side


class _WorkerChannel:
    """Parent-side handle on one worker: process, counters block, pipes."""

    def __init__(
        self,
        ctx,
        index: int,
        sites: Tuple[str, ...],
        policy: GeneralizationPolicy,
        specs: Dict[str, SiteShardSpec],
        base_epoch: int,
        crash_points: Dict[str, frozenset],
    ) -> None:
        self.index = index
        self.sites = sites
        self.shm = SharedMemory(create=True, size=_CTRL_BYTES)
        self.shm.buf[:_CTRL_BYTES] = bytes(_CTRL_BYTES)
        self.cmd_recv_end, self.cmd_send = ctx.Pipe(duplex=False)
        self.res_recv, self.res_send_end = ctx.Pipe(duplex=False)
        self.batches_submitted = 0
        self.records_submitted = 0
        self.restarts = 0
        self.replayed_batches = 0
        #: current-epoch ("batch", site, items) messages, for crash replay
        self.log: List[Tuple] = []
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                self.cmd_recv_end,
                self.res_send_end,
                self.shm.name,
                policy,
                {site: specs[site] for site in sites},
                base_epoch,
                {
                    site: crash_points[site]
                    for site in sites
                    if crash_points.get(site)
                },
            ),
            daemon=True,
        )
        self.process.start()
        # the worker holds the only read end now, so a send to a dead
        # worker raises BrokenPipeError instead of blocking on a full pipe
        self.cmd_recv_end.close()

    def ctrl(self) -> Tuple[int, int, int, int]:
        return _CTRL.unpack_from(self.shm.buf, 0)

    def close(self) -> None:
        for end in (
            self.cmd_send,
            self.cmd_recv_end,
            self.res_recv,
            self.res_send_end,
        ):
            try:
                end.close()
            except OSError:  # pragma: no cover - already closed
                pass
        try:
            self.shm.close()
            self.shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


class ShardedIngestPool:
    """Per-site worker processes fed pickled record batches.

    ``sites`` maps each ingest-site label to its
    :class:`SiteShardSpec`; iteration order fixes the (deterministic)
    round-robin assignment of sites to workers.  ``crash_points`` maps
    site labels to ``(epoch, batch)`` pairs at which the owning worker
    self-terminates — the hook :class:`~repro.faults.plan.FaultPlan`
    uses for fault drills.
    """

    def __init__(
        self,
        policy: GeneralizationPolicy,
        sites: Mapping[str, SiteShardSpec],
        config: Optional[ParallelIngestConfig] = None,
        base_epoch: int = 0,
        crash_points: Optional[Mapping[str, Iterable[Tuple[int, int]]]] = None,
        generation: int = 0,
    ) -> None:
        if not sites:
            raise ValueError("a sharded ingest pool needs at least one site")
        self.policy = policy
        self.schema = policy.schema
        self.config = config or ParallelIngestConfig()
        #: topology generation this pool was forked under; the runtime
        #: drains and replaces a pool whose generation lags the model's
        self.generation = generation
        self._specs = dict(sites)
        self._epoch = base_epoch
        self._crash_points: Dict[str, frozenset] = {
            site: frozenset(points)
            for site, points in (crash_points or {}).items()
        }
        self._closed = False
        worker_count = min(self.config.workers, len(self._specs))
        assignment: List[List[str]] = [[] for _ in range(worker_count)]
        for i, site in enumerate(self._specs):
            assignment[i % worker_count].append(site)
        self._site_worker: Dict[str, int] = {
            site: w for w, names in enumerate(assignment) for site in names
        }
        self._ctx = get_context("fork")
        self._channels: List[_WorkerChannel] = [
            _WorkerChannel(
                self._ctx,
                w,
                tuple(names),
                policy,
                self._specs,
                base_epoch,
                self._crash_points,
            )
            for w, names in enumerate(assignment)
        ]

    # -- introspection ----------------------------------------------------

    @property
    def sites(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    @property
    def workers(self) -> int:
        return len(self._channels)

    @property
    def epoch(self) -> int:
        return self._epoch

    def worker_stats(self) -> List[WorkerStats]:
        """Per-worker progress (shm counters + parent-side bookkeeping)."""
        out = []
        for channel in self._channels:
            done_batches, done_records, busy_ns, _ = channel.ctrl()
            out.append(
                WorkerStats(
                    worker=channel.index,
                    pid=channel.process.pid,
                    alive=channel.process.is_alive(),
                    sites=channel.sites,
                    batches_submitted=channel.batches_submitted,
                    records_submitted=channel.records_submitted,
                    batches_done=done_batches,
                    records_done=done_records,
                    busy_seconds=busy_ns / 1e9,
                    queue_depth=max(
                        0, channel.batches_submitted - done_batches
                    ),
                    restarts=channel.restarts,
                    replayed_batches=channel.replayed_batches,
                )
            )
        return out

    # -- submission -------------------------------------------------------

    def submit(self, site: str, records: Iterable[Any]) -> int:
        """Ship one ingest batch to the site's worker.

        Each record becomes one flat tuple ``(key.values, key.levels,
        packets, bytes, flows, timestamp)`` and the batch travels as one
        pickled message.  A record serial ingest would reject (not a
        flow or packet record, a key of another schema, levels off the
        canonical chain) raises here, before anything is shipped or
        logged.  Returns the record count.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        channel = self._channel_for(site)
        schema_name = self.schema.name
        depth_of = self.policy.depth_of
        items = []
        for record in records:
            if isinstance(record, FlowRecord):
                packets, nbytes, flows = record.packets, record.bytes, 1
                timestamp = record.first_seen
            elif isinstance(record, PacketRecord):
                score = record.score()
                packets, nbytes, flows = score.packets, score.bytes, score.flows
                timestamp = record.timestamp
            else:
                raise SchemaMismatchError(
                    f"parallel ingest cannot ship {type(record).__name__} "
                    "records"
                )
            key = record.key
            if key.schema.name != schema_name:
                raise SchemaMismatchError(
                    f"key schema {key.schema.name!r} != pool schema "
                    f"{schema_name!r}"
                )
            if depth_of(key.levels) is None:
                raise GranularityError(
                    f"key levels {key.levels} are not on the canonical chain"
                )
            items.append(
                (key.values, key.levels, packets, nbytes, flows, timestamp)
            )
        if not items:
            return 0
        self._send_logged(channel, ("batch", site, items))
        channel.records_submitted += len(items)
        return len(items)

    def _send_logged(self, channel: _WorkerChannel, message: Tuple) -> None:
        channel.log.append(message)
        channel.batches_submitted += 1
        try:
            channel.cmd_send.send(message)
        except (BrokenPipeError, OSError):
            self._revive(channel)  # replay already covers this message

    # -- epoch barrier ----------------------------------------------------

    def flush(self) -> Dict[str, Dict[str, Any]]:
        """Drain every worker and collect per-site shard summaries.

        The epoch barrier: blocks until each worker has applied its
        queued batches, returns ``{site: {"tree", "compressions", "items",
        "epoch_start", "epoch_end", "opened_at"}}`` for every site that
        ingested anything, and resets the shard trees for the next
        epoch.  A worker found dead is respawned and its epoch replayed
        first, so the summaries are complete even across crashes.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        summaries: Dict[str, Dict[str, Any]] = {}
        errors: List[str] = []
        for index in range(len(self._channels)):
            reply = self._flush_channel(self._channels[index])
            summaries.update(reply[2])
            errors.extend(reply[3])
            # a revive mid-flush swaps the channel object; clear the
            # live one so replayed batches aren't replayed twice
            self._channels[index].log.clear()
        self._epoch += 1
        if errors:
            raise SchemaMismatchError(
                "parallel ingest rejected records: " + "; ".join(errors)
            )
        return summaries

    def _flush_channel(self, channel: _WorkerChannel):
        try:
            channel.cmd_send.send(("flush", self._epoch))
        except (BrokenPipeError, OSError):
            self._revive(channel)
            channel = self._channels[channel.index]
            channel.cmd_send.send(("flush", self._epoch))
        deadline = time.monotonic() + self.config.flush_timeout
        while True:
            if channel.res_recv.poll(self.config.poll_seconds):
                try:
                    return channel.res_recv.recv()
                except EOFError:
                    pass  # died between poll and recv
            if not channel.process.is_alive():
                self._revive(channel)
                channel = self._channels[channel.index]
                channel.cmd_send.send(("flush", self._epoch))
                deadline = time.monotonic() + self.config.flush_timeout
            elif time.monotonic() > deadline:
                raise TransferError(
                    f"ingest worker {channel.index} did not flush within "
                    f"{self.config.flush_timeout}s"
                )

    def sync_site(self, site: str, spec: SiteShardSpec) -> None:
        """Propagate adapted tree parameters (budget, ratio, metric)."""
        self._specs[site] = spec
        channel = self._channel_for(site)
        try:
            channel.cmd_send.send(("config", site, spec))
        except (BrokenPipeError, OSError):
            self._revive(channel)  # respawn picks up the updated spec

    # -- fault recovery ---------------------------------------------------

    def _revive(self, channel: _WorkerChannel) -> None:
        """Respawn a dead worker and replay its current epoch."""
        channel.process.join(timeout=self.config.flush_timeout)
        replay = list(channel.log)
        restarts = channel.restarts + 1
        replayed = channel.replayed_batches + len(replay)
        records_submitted = channel.records_submitted
        # the crash point consumed itself; retire this epoch's points so
        # the replayed batches aren't shot down again
        for site in channel.sites:
            points = self._crash_points.get(site)
            if points:
                self._crash_points[site] = frozenset(
                    point for point in points if point[0] != self._epoch
                )
        channel.close()
        fresh = _WorkerChannel(
            self._ctx,
            channel.index,
            channel.sites,
            self.policy,
            self._specs,
            self._epoch,
            self._crash_points,
        )
        fresh.restarts = restarts
        fresh.replayed_batches = replayed
        fresh.records_submitted = records_submitted
        self._channels[channel.index] = fresh
        for message in replay:
            self._send_logged(fresh, message)

    def _channel_for(self, site: str) -> _WorkerChannel:
        try:
            return self._channels[self._site_worker[site]]
        except KeyError as exc:
            raise KeyError(
                f"site {site!r} is not sharded; known: {sorted(self._specs)}"
            ) from exc

    # -- lifecycle --------------------------------------------------------

    def shutdown(self) -> None:
        """Stop the workers and release shm; idempotent."""
        if self._closed:
            return
        self._closed = True
        for channel in self._channels:
            try:
                channel.cmd_send.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            channel.process.join(timeout=self.config.flush_timeout)
            if channel.process.is_alive():  # pragma: no cover - hung worker
                channel.process.terminate()
                channel.process.join(timeout=5)
            channel.close()

    def __enter__(self) -> "ShardedIngestPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass
