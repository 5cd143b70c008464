"""The sharded ingest pool: per-site worker processes + shm batches.

Topology: the pool owns ``min(workers, sites)`` forked worker
processes; each ingest site is assigned to exactly one worker
(round-robin), and that worker holds the site's Flowtree *exclusively*
— no locks, no shared mutable state, the paper's shard-per-core recipe.

Transport: one :class:`multiprocessing.shared_memory.SharedMemory`
block per worker, laid out as a small control region (int64 progress
counters the worker owns and the parent samples for observability)
followed by a ring of fixed-size slots.  A submission is encoded to a
:class:`~repro.flows.columnar.ColumnarBatch` and packed into a free
slot — no pickling on the hot path; only the tiny ``("batch", site,
slot, n, final)`` descriptor crosses the command pipe.  Records that
cannot be encoded columnar (packet records, exotic key types) fall
back to a pickled ``("raw", …)`` message on the same pipe, so ordering
is preserved either way.

Determinism: per site, the worker applies exactly the submitted chunk
boundaries in submission order, using the ``finalize`` flag so a
submission split across slots compresses exactly like one serial
``add_many`` call.  ``flush()`` is the epoch barrier: it drains every
worker, returns per-site shard summaries (``tree.to_dict()`` + epoch
bookkeeping), and resets the shard trees for the next epoch.

Fault handling: a worker that dies mid-epoch (e.g. an injected
``crash=`` fault from :class:`~repro.faults.plan.FaultPlan`) is
respawned and the parent's per-epoch batch log is replayed to it in
order, reproducing the lost shard state bit-for-bit; the crash point
that already fired is retired so replay completes.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchemaMismatchError, TransferError
from repro.flows.columnar import HAVE_NUMPY, ColumnarBatch, ColumnarEncodeError
from repro.flows.flowkey import GeneralizationPolicy
from repro.flows.records import FlowRecord, PacketRecord
from repro.flows.tree import Flowtree
from repro.parallel.config import ParallelIngestConfig

#: exit code of an injected worker crash (distinguishes faults from bugs)
CRASH_EXIT_CODE = 17

#: int64 progress counters at the head of each worker's shm block
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

    def _observe(self, first: float, last: float, count: int) -> None:
        if self.opened_at is None:
            self.opened_at = first
        if self.epoch_start is None or first < self.epoch_start:
            self.epoch_start = first
        if self.epoch_end is None or last > self.epoch_end:
            self.epoch_end = last
        self.items += count

    def apply_columnar(self, batch: ColumnarBatch, final: bool) -> int:
        n = len(batch)
        if n:
            # serial ingest timestamps every record with first_seen, so
            # both epoch bounds come from the first_seen column
            self._observe(
                float(batch.first_seen[0]),
                float(batch.first_seen.max()),
                n,
            )
            first_min = float(batch.first_seen.min())
            if first_min < self.epoch_start:  # type: ignore[operator]
                self.epoch_start = first_min
            self.tree.ingest_columnar(batch, finalize=final)
        return n

    def apply_raw(self, timed_items: Sequence[Tuple[Any, float]], final: bool) -> int:
        pairs = []
        first = last = None
        for item, timestamp in timed_items:
            pairs.append((item.key, item.score()))
            if first is None or timestamp < first:
                first = timestamp
            if last is None or timestamp > last:
                last = timestamp
        if not pairs:
            return 0
        if self.opened_at is None:
            self.opened_at = timed_items[0][1]
        if self.epoch_start is None or first < self.epoch_start:
            self.epoch_start = first
        if self.epoch_end is None or last > self.epoch_end:
            self.epoch_end = last
        self.items += len(pairs)
        self.tree.add_many(pairs, finalize=final)
        return len(pairs)

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
    slot_bytes: int,
    policy: GeneralizationPolicy,
    specs: Dict[str, SiteShardSpec],
    free_sem,
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
    schema_name = policy.schema.name
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
            if kind == "batch" or kind == "raw":
                site = message[1]
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
                    if kind == "batch":
                        _, _, slot, final = message
                        offset = _CTRL_BYTES + slot * slot_bytes
                        batch = ColumnarBatch.unpack_from(
                            schema_name, buf[offset:offset + slot_bytes]
                        )
                        records_done += shard.apply_columnar(batch, final)
                        del batch  # drop the shm views before release
                        free_sem.release()
                    else:
                        _, _, timed_items, final = message
                        records_done += shard.apply_raw(timed_items, final)
                except Exception as exc:  # surface at flush, keep draining
                    errors.append(f"{site}: {exc!r}")
                    if kind == "batch":
                        free_sem.release()
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
    """Parent-side handle on one worker: process, shm ring, pipes."""

    def __init__(
        self,
        ctx,
        index: int,
        sites: Tuple[str, ...],
        policy: GeneralizationPolicy,
        specs: Dict[str, SiteShardSpec],
        config: ParallelIngestConfig,
        slot_bytes: int,
        base_epoch: int,
        crash_points: Dict[str, frozenset],
    ) -> None:
        self.index = index
        self.sites = sites
        self.slot_bytes = slot_bytes
        self.slots = config.slots_per_worker
        self.shm = SharedMemory(
            create=True, size=_CTRL_BYTES + self.slots * slot_bytes
        )
        self.shm.buf[:_CTRL_BYTES] = bytes(_CTRL_BYTES)
        self.free_sem = ctx.Semaphore(self.slots)
        self.cmd_recv_end, self.cmd_send = ctx.Pipe(duplex=False)
        self.res_recv, self.res_send_end = ctx.Pipe(duplex=False)
        self.next_slot = 0
        self.batches_submitted = 0
        self.records_submitted = 0
        self.restarts = 0
        self.replayed_batches = 0
        #: current-epoch submissions, for crash replay: ("batch", site,
        #: packed bytes, final) or ("raw", site, timed_items, final)
        self.log: List[Tuple] = []
        self.process = ctx.Process(
            target=_worker_main,
            args=(
                self.cmd_recv_end,
                self.res_send_end,
                self.shm.name,
                slot_bytes,
                policy,
                {site: specs[site] for site in sites},
                self.free_sem,
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
    """Per-site worker processes fed by shared-memory columnar batches.

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
        slot_bytes = ColumnarBatch.packed_nbytes(
            self.config.slot_records, len(self.schema)
        )
        self._ctx = get_context("fork")
        self._channels: List[_WorkerChannel] = [
            _WorkerChannel(
                self._ctx,
                w,
                tuple(names),
                policy,
                self._specs,
                self.config,
                slot_bytes,
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

    def submit(self, site: str, records: Sequence[Any]) -> int:
        """Ship one ingest batch to the site's worker.

        The batch is encoded columnar and split across slot-sized
        chunks marked as one logical batch; records the columnar layout
        cannot carry (packet records, generalized keys, out-of-range
        counters) travel as one pickled raw message instead.  Returns
        the record count.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        channel = self._channel_for(site)
        records = list(records)
        if not records:
            return 0
        if HAVE_NUMPY:
            try:
                batch = ColumnarBatch.encode(records, self.schema)
            except ColumnarEncodeError:
                batch = None
        else:
            batch = None
        if batch is None:
            for record in records:
                if not isinstance(record, (FlowRecord, PacketRecord)):
                    raise SchemaMismatchError(
                        "parallel ingest cannot ship "
                        f"{type(record).__name__} records"
                    )
            timed = [
                (
                    record,
                    record.first_seen
                    if isinstance(record, FlowRecord)
                    else record.timestamp,
                )
                for record in records
            ]
            self._send_logged(channel, ("raw", site, timed, True))
            channel.records_submitted += len(records)
            return len(records)
        n = len(batch)
        step = self.config.slot_records
        lo = 0
        while lo < n:
            hi = min(n, lo + step)
            chunk = ColumnarBatch(
                batch.schema_name,
                batch.values[lo:hi],
                batch.packets[lo:hi],
                batch.bytes[lo:hi],
                batch.first_seen[lo:hi],
                batch.last_seen[lo:hi],
            )
            self._submit_chunk(channel, site, chunk, final=hi == n)
            lo = hi
        channel.records_submitted += n
        return n

    def _submit_chunk(
        self, channel: _WorkerChannel, site: str, chunk: ColumnarBatch, final: bool
    ) -> None:
        channel = self._acquire_slot(channel)
        slot = channel.next_slot
        channel.next_slot = (slot + 1) % channel.slots
        offset = _CTRL_BYTES + slot * channel.slot_bytes
        view = channel.shm.buf[offset:offset + channel.slot_bytes]
        written = chunk.pack_into(view)
        packed = bytes(view[:written])
        del view
        self._send_logged(
            channel, ("batch", site, slot, final), replay=("batch", site, packed, final)
        )

    def _acquire_slot(self, channel: _WorkerChannel) -> _WorkerChannel:
        """Block for a free slot; returns the live (possibly respawned)
        channel, since a revive mid-wait replaces the channel object."""
        while not channel.free_sem.acquire(timeout=self.config.poll_seconds):
            if not channel.process.is_alive():
                self._revive(channel)
                channel = self._channels[channel.index]
        return channel

    def _send_logged(
        self, channel: _WorkerChannel, message: Tuple, replay: Optional[Tuple] = None
    ) -> None:
        channel.log.append(replay if replay is not None else message)
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
            self.config,
            channel.slot_bytes,
            self._epoch,
            self._crash_points,
        )
        fresh.restarts = restarts
        fresh.replayed_batches = replayed
        fresh.records_submitted = records_submitted
        self._channels[channel.index] = fresh
        for entry in replay:
            kind, site, payload, final = entry
            if kind == "batch":
                self._replay_packed(fresh, site, payload, final)
            else:
                self._send_logged(fresh, ("raw", site, payload, final))

    def _replay_packed(
        self, fresh: _WorkerChannel, site: str, packed: bytes, final: bool
    ) -> None:
        self._acquire_slot(fresh)
        slot = fresh.next_slot
        fresh.next_slot = (slot + 1) % fresh.slots
        offset = _CTRL_BYTES + slot * fresh.slot_bytes
        fresh.shm.buf[offset:offset + len(packed)] = packed
        self._send_logged(
            fresh, ("batch", site, slot, final), replay=("batch", site, packed, final)
        )

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
