"""Columnar flow-record batches and the vectorized Flowtree walk.

The per-record ingest walk tops out near 36k records/s on one core —
three orders of magnitude short of the line rates the paper's edge
hierarchy must absorb.  This module is the data-parallel half of the
answer (process parallelism is :mod:`repro.parallel`):

* :class:`ColumnarBatch` packs a list of fully-specific
  :class:`~repro.flows.records.FlowRecord` into flat numpy columns
  (key values, packets, bytes, timestamps).  The layout is fixed-width
  int64/float64, so a batch round-trips through a shared-memory slot
  with :meth:`ColumnarBatch.pack_into` / :meth:`ColumnarBatch.unpack_from`
  without pickling.
* :func:`ingest_batch` replays a batch into a
  :class:`~repro.flows.tree.Flowtree` with the per-depth projector walk
  vectorized: records are grouped per canonical depth with one masked
  ``np.unique`` cascade, and group sums land on the nodes in O(distinct
  nodes) python operations instead of O(records × depth).

Bit-exactness is the contract, not an aspiration: the vectorized walk
produces *the same tree, node for node*, as the scalar
:meth:`~repro.flows.tree.Flowtree.add_many` over the same records in
the same order.  A tree's behaviour is a function of its content, so
the one thing to reproduce is *where* the scalar loop compresses:
``add_many`` only compresses when an insert pushes the node count past
the bounded overshoot.  A run of records whose new-node count keeps the
tree at or below the overshoot is therefore *pure addition* in both
modes — integer sums are associative/commutative, so group-sums equal
record-by-record sums exactly.  The planner groups a window of records
once, reads the per-record node-birth schedule off the group
first-occurrence indices, and from it *predicts the exact record* at
which the scalar loop would cross the overshoot; it applies precisely
that prefix, compresses where the scalar loop would, and replans the
rest against the compressed tree.

Grouping hashes each row to one uint64 (per-column odd multipliers) and
uniques the hashes; a vectorized equality check against each group's
representative row detects the astronomically-unlikely collision, which
falls back to the exact ``np.unique(axis=0)``.  Either way the result
is exact — hashing is only a fast path.

numpy is optional everywhere: without it (or with a policy whose
features override :meth:`~repro.flows.features.Feature.mask`), encoding
raises :class:`ColumnarEncodeError` and callers fall back to the
existing scalar mask closures.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised via HAVE_NUMPY gating
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.errors import SchemaMismatchError
from repro.flows.flowkey import FeatureSchema, FlowKey
from repro.flows.records import FlowRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.flows.tree import Flowtree

HAVE_NUMPY = np is not None

#: batches at or below this size take the scalar ``add_many`` walk
#: instead of the window planner: the planner's fixed per-chunk cost
#: (grouping, hashing, mask projection) exceeds its vectorization win
#: below the measured crossover (~512 records on the reference box;
#: 256 keeps a safety margin).  Both paths are bit-identical, so this
#: is purely a latency knob — ``bench_ingest_scaling``'s ``batch=*``
#: rows pin the crossover so drift shows up in review.
SCALAR_FALLBACK_RECORDS = 256

#: slot header: record count + feature arity, little-endian int64s
_HEADER = struct.Struct("<qq")

#: odd 64-bit multipliers for row hashing; extended multiplicatively for
#: schemas wider than the seed list
_HASH_SEEDS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0xD6E8FEB86659FD93,
)


class ColumnarEncodeError(ValueError):
    """A record list cannot be encoded columnar (caller should fall back).

    Raised for non-:class:`FlowRecord` items, generalized keys, schema
    mismatches, or a missing numpy — all conditions the scalar path
    handles; columnar encoding simply declines them.
    """


def _hash_multipliers(arity: int):
    seeds = list(_HASH_SEEDS)
    step = 0x9E3779B97F4A7C15
    while len(seeds) < arity:
        seeds.append((seeds[-1] * step + 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF | 1)
    return np.array(seeds[:arity], dtype=np.uint64)


class ColumnarBatch:
    """Fully-specific flow records as flat, fixed-width columns.

    ``values`` is an ``(n, arity)`` int64 array of key value tuples;
    ``packets``/``bytes`` are int64 and ``first_seen``/``last_seen``
    float64 columns of length ``n``.  Flow count per record is the
    implicit 1 of :meth:`FlowRecord.score`.
    """

    __slots__ = (
        "schema_name",
        "values",
        "packets",
        "bytes",
        "first_seen",
        "last_seen",
    )

    def __init__(
        self, schema_name, values, packets, nbytes, first_seen, last_seen
    ) -> None:
        self.schema_name = schema_name
        self.values = values
        self.packets = packets
        self.bytes = nbytes
        self.first_seen = first_seen
        self.last_seen = last_seen

    def __len__(self) -> int:
        return len(self.packets)

    @property
    def arity(self) -> int:
        return self.values.shape[1]

    # -- encode / decode ------------------------------------------------

    @classmethod
    def encode(
        cls, records: Sequence[FlowRecord], schema: FeatureSchema
    ) -> "ColumnarBatch":
        """Pack records into columns, validating as the scalar path would.

        Every record must be a :class:`FlowRecord` with a fully-specific
        key over ``schema``; anything else raises
        :class:`ColumnarEncodeError` so the caller can take the scalar
        route (which either ingests it — packet records — or raises the
        scalar path's own, richer error).
        """
        if np is None:
            raise ColumnarEncodeError("numpy is not available")
        name = schema.name
        max_levels = schema.max_levels()
        for record in records:
            if type(record) is not FlowRecord:
                raise ColumnarEncodeError(
                    f"cannot encode {type(record).__name__} columnar"
                )
            key = record.key
            if key.schema.name != name or key.levels != max_levels:
                raise ColumnarEncodeError(
                    "columnar batches need fully-specific keys over "
                    f"schema {name!r}"
                )
        n = len(records)
        arity = len(schema)
        try:
            values = np.fromiter(
                (v for record in records for v in record.key.values),
                dtype=np.int64,
                count=n * arity,
            ).reshape(n, arity)
            packets = np.fromiter(
                (record.packets for record in records), dtype=np.int64, count=n
            )
            nbytes = np.fromiter(
                (record.bytes for record in records), dtype=np.int64, count=n
            )
        except OverflowError as exc:
            # counters past int64 stay on the scalar path (python ints
            # are unbounded there); columnar would silently be wrong
            raise ColumnarEncodeError(str(exc)) from exc
        first_seen = np.fromiter(
            (record.first_seen for record in records), dtype=np.float64, count=n
        )
        last_seen = np.fromiter(
            (record.last_seen for record in records), dtype=np.float64, count=n
        )
        return cls(name, values, packets, nbytes, first_seen, last_seen)

    def decode(self, schema: FeatureSchema) -> List[FlowRecord]:
        """Rebuild the original record list (the encode round-trip)."""
        if schema.name != self.schema_name:
            raise SchemaMismatchError(
                f"batch schema {self.schema_name!r} != schema {schema.name!r}"
            )
        levels = schema.max_levels()
        packets = self.packets.tolist()
        nbytes = self.bytes.tolist()
        first = self.first_seen.tolist()
        last = self.last_seen.tolist()
        return [
            FlowRecord(
                key=FlowKey(schema, tuple(row), levels),
                packets=packets[i],
                bytes=nbytes[i],
                first_seen=first[i],
                last_seen=last[i],
            )
            for i, row in enumerate(self.values.tolist())
        ]

    # -- shared-memory transport ----------------------------------------

    @staticmethod
    def packed_nbytes(n: int, arity: int) -> int:
        """Bytes one packed batch of ``n`` records occupies in a slot."""
        return _HEADER.size + 8 * n * (arity + 4)

    def pack_into(self, buf) -> int:
        """Serialize into a writable buffer; returns bytes written."""
        n = len(self)
        arity = self.arity
        _HEADER.pack_into(buf, 0, n, arity)
        offset = _HEADER.size
        for column in (
            np.ascontiguousarray(self.values).reshape(-1),
            self.packets,
            self.bytes,
            self.first_seen,
            self.last_seen,
        ):
            raw = column.tobytes()
            buf[offset:offset + len(raw)] = raw
            offset += len(raw)
        return offset

    @classmethod
    def unpack_from(cls, schema_name: str, buf) -> "ColumnarBatch":
        """Deserialize a batch packed with :meth:`pack_into`.

        The returned columns are zero-copy views into ``buf`` — drop
        the batch before the underlying slot is reused or unmapped.
        """
        n, arity = _HEADER.unpack_from(buf, 0)
        offset = _HEADER.size

        def column(count, dtype):
            nonlocal offset
            out = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
            offset += 8 * count
            return out

        values = column(n * arity, np.int64).reshape(n, arity)
        packets = column(n, np.int64)
        nbytes = column(n, np.int64)
        first_seen = column(n, np.float64)
        last_seen = column(n, np.float64)
        return cls(schema_name, values, packets, nbytes, first_seen, last_seen)


# ----------------------------------------------------------------------
# the vectorized walk


def _masks_for(tree: "Flowtree"):
    """The policy's mask table as an int64 array, cached on the tree."""
    cached = getattr(tree, "_columnar_masks", False)
    if cached is not False:
        return cached
    masks = None
    if np is not None:
        rows = tree.policy.bitmask_rows()
        if rows is not None:
            masks = np.array(rows, dtype=np.int64)
    tree._columnar_masks = masks
    return masks


def _group_rows(rows, mults):
    """Exact row grouping: (unique rows, first occurrence, inverse).

    Hashes rows to one uint64 each and uniques the hashes; the
    vectorized representative check catches hash collisions (and falls
    back to the exact axis unique), so the grouping is always exact.
    """
    hashes = (rows.astype(np.uint64) * mults).sum(axis=1, dtype=np.uint64)
    _, first, inverse = np.unique(
        hashes, return_index=True, return_inverse=True
    )
    uniq = rows[first]
    if not np.array_equal(uniq[inverse], rows):  # pragma: no cover - ~2^-64
        uniq, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
    return uniq, first, inverse


class _ChunkPlan:
    """Per-depth group sums for one applicable run of records."""

    __slots__ = ("depths", "total")

    def __init__(self, depths, total):
        #: deepest first: (depth, tuples, new_flags, packets, bytes,
        #: flows) — python lists, chunk order irrelevant
        self.depths = depths
        self.total = total  # (packets, bytes, flows) chunk totals


class _WindowPlan:
    """One grouped window of records, materializable per prefix.

    Grouping (the expensive part — the masked cascade, hashing, tuple
    building, dict membership) happens once per window; the budgeted
    loop then materializes the exact prefix that fits under the
    overshoot, which only needs cheap prefix-restricted sums.
    """

    __slots__ = ("n", "packets", "nbytes", "depths", "births")

    def __init__(self, n, packets, nbytes, depths, births):
        self.n = n
        self.packets = packets  # window slice, np int64
        self.nbytes = nbytes
        #: per depth, deepest first: (depth, tuples, new_flags, first,
        #: row_inverse, pk, bt, fl) — first/row_inverse/sums are numpy,
        #: sums are full-window cascade totals
        self.depths = depths
        #: sorted window-relative record indices, one per new node
        self.births = births

    def crossing(self, capacity: int) -> int:
        """First record index that pushes births past ``capacity``.

        Returns -1 when the whole window fits (fewer than
        ``capacity + 1`` new nodes).  ``capacity < 0`` means the tree
        is already above the line, so the very first record crosses
        (the scalar loop checks after every record, births or not).
        """
        if capacity < 0:
            return 0
        if len(self.births) <= capacity:
            return -1
        return int(self.births[capacity])

    def materialize(self, r_stop: int) -> _ChunkPlan:
        """The apply-plan for window records ``[0, r_stop]`` inclusive."""
        p = r_stop + 1
        full = p >= self.n
        out = []
        for d, tuples, new_flags, first, row_inverse, pk, bt, fl in self.depths:
            if full:
                out.append(
                    (
                        d,
                        tuples,
                        new_flags,
                        pk.tolist(),
                        bt.tolist(),
                        fl.tolist(),
                    )
                )
                continue
            keep = np.flatnonzero(first <= r_stop)
            sel = row_inverse[:p]
            groups = len(tuples)
            ppk = np.zeros(groups, dtype=np.int64)
            np.add.at(ppk, sel, self.packets[:p])
            pbt = np.zeros(groups, dtype=np.int64)
            np.add.at(pbt, sel, self.nbytes[:p])
            pfl = np.bincount(sel, minlength=groups)
            idx = keep.tolist()
            out.append(
                (
                    d,
                    [tuples[i] for i in idx],
                    [new_flags[i] for i in idx],
                    ppk[keep].tolist(),
                    pbt[keep].tolist(),
                    pfl[keep].tolist(),
                )
            )
        total = (
            int(self.packets[:p].sum()),
            int(self.nbytes[:p].sum()),
            p,
        )
        return _ChunkPlan(out, total)


def _plan_window(tree, values, packets, nbytes, lo, hi, masks, mults):
    """Group records ``[lo, hi)`` per canonical depth, deepest first."""
    rows = values[lo:hi]
    n = hi - lo
    depth = masks.shape[0] - 1
    cur_rows, first, inverse = _group_rows(rows, mults)
    groups = len(cur_rows)
    cur_pk = np.zeros(groups, dtype=np.int64)
    np.add.at(cur_pk, inverse, packets[lo:hi])
    cur_bt = np.zeros(groups, dtype=np.int64)
    np.add.at(cur_bt, inverse, nbytes[lo:hi])
    cur_fl = np.bincount(inverse, minlength=groups).astype(np.int64)
    cur_first = first.astype(np.int64)
    cur_inverse = inverse
    index = tree._index
    depths = []
    new_firsts = []
    d = depth
    while True:
        tuples = [tuple(row) for row in cur_rows.tolist()]
        contains = index[d].__contains__
        new_flags = [not contains(t) for t in tuples]
        if any(new_flags):
            new_firsts.append(cur_first[np.array(new_flags, dtype=bool)])
        depths.append(
            (d, tuples, new_flags, cur_first, cur_inverse, cur_pk, cur_bt, cur_fl)
        )
        if d == 1:
            break
        d -= 1
        # masks nest along the chain, so the parent projection of the
        # already-masked child rows equals projecting the raw rows
        parent_rows = cur_rows & masks[d]
        cur_rows, _, pinv = _group_rows(parent_rows, mults)
        groups = len(cur_rows)
        pk = np.zeros(groups, dtype=np.int64)
        np.add.at(pk, pinv, cur_pk)
        bt = np.zeros(groups, dtype=np.int64)
        np.add.at(bt, pinv, cur_bt)
        fl = np.zeros(groups, dtype=np.int64)
        np.add.at(fl, pinv, cur_fl)
        pfirst = np.full(groups, n, dtype=np.int64)
        np.minimum.at(pfirst, pinv, cur_first)
        cur_pk, cur_bt, cur_fl, cur_first = pk, bt, fl, pfirst
        cur_inverse = pinv[cur_inverse]
    if new_firsts:
        births = np.sort(np.concatenate(new_firsts))
    else:
        births = np.empty(0, dtype=np.int64)
    return _WindowPlan(n, packets[lo:hi], nbytes[lo:hi], depths, births)


def _apply_plan(tree, plan) -> None:
    """Apply one planned chunk: create its new nodes, add the sums."""
    index = tree._index
    projectors = tree._projectors
    new_node = tree._new_node
    # shallowest depth first, so a new node's parent already exists
    for d, tuples, new_flags, _, _, _ in reversed(plan.depths):
        project = projectors[d - 1]
        above = index[d - 1]
        for values, is_new in zip(tuples, new_flags):
            if is_new:
                new_node(d, values, above[project(values)])
    root = tree._root
    tpk, tbt, tfl = plan.total
    root.subtree_packets += tpk
    root.subtree_bytes += tbt
    root.subtree_flows += tfl
    leaf_depth = tree.policy.depth
    for d, tuples, _, pk, bt, fl in plan.depths:
        own = d == leaf_depth
        level = index[d]
        for i, values in enumerate(tuples):
            node = level[values]
            node.subtree_packets += pk[i]
            node.subtree_bytes += bt[i]
            node.subtree_flows += fl[i]
            if own:
                node.own_packets += pk[i]
                node.own_bytes += bt[i]
                node.own_flows += fl[i]


def ingest_batch(
    tree: "Flowtree", batch: ColumnarBatch, finalize: bool = True
) -> int:
    """Ingest a columnar batch, bit-identically to the scalar path.

    Equivalent to ``tree.ingest(batch.decode(tree.schema))`` — same
    nodes, same compression passes — but grouped and
    summed with numpy.  ``finalize=False`` skips the trailing
    budget-restoring compress, for callers streaming several chunks of
    one logical batch (the last chunk finalizes).

    Falls back to the scalar walk when the policy's features mask
    customly (no numpy table exists for them).
    """
    if batch.schema_name != tree.schema.name:
        raise SchemaMismatchError(
            f"batch schema {batch.schema_name!r} != tree schema "
            f"{tree.schema.name!r}"
        )
    n = len(batch)
    if n == 0:
        return 0
    masks = _masks_for(tree)
    if masks is None:
        return tree.add_many(
            (
                (record.key, record.score())
                for record in batch.decode(tree.schema)
            ),
            finalize=finalize,
        )
    if masks.shape[0] == 1:
        # degenerate depth-0 chain: every record lands on the root
        root = tree._root
        tpk = int(batch.packets.sum())
        tbt = int(batch.bytes.sum())
        root.subtree_packets += tpk
        root.subtree_bytes += tbt
        root.subtree_flows += n
        root.own_packets += tpk
        root.own_bytes += tbt
        root.own_flows += n
        return n
    if n <= SCALAR_FALLBACK_RECORDS:
        # the window planner's per-chunk overhead (grouping, hashing,
        # mask projection) dominates below the measured crossover; the
        # scalar walk is faster and bit-identical by construction
        return tree.add_many(
            (
                (record.key, record.score())
                for record in batch.decode(tree.schema)
            ),
            finalize=finalize,
        )
    mults = _hash_multipliers(batch.arity)
    values = np.ascontiguousarray(batch.values)
    packets = batch.packets
    nbytes = batch.bytes
    budget = tree.node_budget
    if budget is None:
        window = _plan_window(tree, values, packets, nbytes, 0, n, masks, mults)
        _apply_plan(tree, window.materialize(n - 1))
        return n
    overshoot = budget + max(64, budget // 8)
    target = int(budget * tree.compress_ratio)
    # window sizing: aim a bit past the records a compress cycle can
    # absorb (capacity / births-per-record), so most windows need one
    # plan and the over-planned tail stays a small fraction
    birth_rate = 1.0
    lo = 0
    while lo < n:
        capacity = overshoot - tree.node_count
        guess = int(max(capacity, 64) / birth_rate * 1.25) + 16
        hi = min(n, lo + max(256, guess))
        window = _plan_window(
            tree, values, packets, nbytes, lo, hi, masks, mults
        )
        crossing = window.crossing(capacity)
        if crossing < 0:
            _apply_plan(tree, window.materialize(window.n - 1))
            if len(window.births):
                birth_rate = max(0.05, len(window.births) / window.n)
            lo = hi
            continue
        _apply_plan(tree, window.materialize(crossing))
        # the prefix ended exactly where the scalar loop would compress
        tree.compress(target_nodes=target)
        tree._compressions += 1
        applied = crossing + 1
        birth_rate = max(0.05, (capacity + 1) / applied)
        lo += applied
    if finalize:
        tree._maybe_self_compress()
    return n
