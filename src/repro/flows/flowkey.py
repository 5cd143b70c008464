"""Feature schemas, generalization policies, and flow keys.

A **schema** fixes the ordered feature set of a flow type — the paper's
"5-feature" flows (protocol, source/destination IP, source/destination
port) or "2-feature" flows (e.g. source and destination IP).

A **generalization policy** linearizes the (multi-parent) generalization
lattice over a schema into a canonical chain of *level vectors*.  Each
flow then has exactly one ancestor per depth, which is what makes the
Flowtree a tree rather than a DAG.  Depth 0 is the all-wildcard root and
``policy.depth`` is the fully-specific leaf level.

A **flow key** is a concrete, possibly generalized, assignment of values
to a schema's features.  Keys are immutable and hashable so they can be
used directly as node identities and dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import GranularityError, SchemaError, SchemaMismatchError
from repro.flows.features import Feature, IPv4Feature, PortFeature, ProtocolFeature

#: A projector masks a fully-specific value tuple down to one canonical
#: depth.  Policies precompute one per depth so the Flowtree hot path
#: never rebuilds mask ladders per call.
Projector = Callable[[Sequence[int]], Tuple[int, ...]]


@dataclass(frozen=True)
class FeatureSchema:
    """An ordered, named set of flow features.

    The schema is the unit of compatibility: two summaries can only be
    merged when they were built over the same schema (and policy).
    """

    name: str
    features: Tuple[Feature, ...]

    def __post_init__(self) -> None:
        names = [feature.name for feature in self.features]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate feature names in schema {self.name!r}")

    def __len__(self) -> int:
        return len(self.features)

    def index_of(self, feature_name: str) -> int:
        """Return the position of ``feature_name`` within the schema."""
        for index, feature in enumerate(self.features):
            if feature.name == feature_name:
                return index
        raise SchemaError(
            f"schema {self.name!r} has no feature {feature_name!r}"
        )

    def feature(self, feature_name: str) -> Feature:
        """Return the :class:`Feature` called ``feature_name``."""
        return self.features[self.index_of(feature_name)]

    def max_levels(self) -> Tuple[int, ...]:
        """The level vector of a fully-specific key."""
        return tuple(feature.max_level for feature in self.features)

    def key(self, **values: Union[int, str]) -> "FlowKey":
        """Build a fully-specific :class:`FlowKey`.

        Values may be given as ints or as feature-domain text (e.g. a
        dotted-quad for an IPv4 feature).
        """
        ordered = []
        for feature in self.features:
            if feature.name not in values:
                raise SchemaError(
                    f"missing value for feature {feature.name!r} "
                    f"of schema {self.name!r}"
                )
            raw = values[feature.name]
            value = feature.parse(raw) if isinstance(raw, str) else raw
            feature.validate(value)
            ordered.append(value)
        extra = set(values) - {f.name for f in self.features}
        if extra:
            raise SchemaError(
                f"unknown features {sorted(extra)} for schema {self.name!r}"
            )
        return FlowKey(self, tuple(ordered), self.max_levels())


@dataclass(frozen=True)
class FlowKey:
    """A concrete, possibly generalized, flow over a schema.

    ``values`` are already masked to ``levels``; construction enforces
    this so equal keys always compare equal.
    """

    schema: FeatureSchema
    values: Tuple[int, ...]
    levels: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.schema) or len(self.levels) != len(
            self.schema
        ):
            raise SchemaError(
                f"key arity {len(self.values)} does not match schema "
                f"{self.schema.name!r} arity {len(self.schema)}"
            )
        masked = tuple(
            feature.mask(value, level)
            for feature, value, level in zip(
                self.schema.features, self.values, self.levels
            )
        )
        if masked != self.values:
            object.__setattr__(self, "values", masked)

    def __hash__(self) -> int:
        return hash((self.schema.name, self.values, self.levels))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowKey):
            return NotImplemented
        return (
            self.schema.name == other.schema.name
            and self.values == other.values
            and self.levels == other.levels
        )

    def generalize(self, feature_name: str, level: int) -> "FlowKey":
        """Return a copy with ``feature_name`` generalized to ``level``."""
        index = self.schema.index_of(feature_name)
        if level > self.levels[index]:
            raise GranularityError(
                f"cannot specialize {feature_name!r} from level "
                f"{self.levels[index]} to {level}"
            )
        levels = list(self.levels)
        levels[index] = level
        return FlowKey(self.schema, self.values, tuple(levels))

    def contains(self, other: "FlowKey") -> bool:
        """True if ``other`` is this key or a specialization of it.

        A key ``a.b.c.0/24`` contains every key whose address falls in
        that prefix, feature by feature.
        """
        return self.schema.name == other.schema.name and self.covers(
            other.values, other.levels
        )

    def covers(
        self, values: Tuple[int, ...], levels: Tuple[int, ...]
    ) -> bool:
        """:meth:`contains` for the key ``(values, levels)`` of this
        schema, tested on its values without building it."""
        for feature, value, level, other_value, other_level in zip(
            self.schema.features, self.values, self.levels, values, levels
        ):
            if level > other_level:
                return False
            if feature.mask(other_value, level) != value:
                return False
        return True

    def feature_value(self, feature_name: str) -> int:
        """The (masked) value of a single feature."""
        return self.values[self.schema.index_of(feature_name)]

    def feature_level(self, feature_name: str) -> int:
        """The mask level of a single feature."""
        return self.levels[self.schema.index_of(feature_name)]

    def __str__(self) -> str:
        rendered = ", ".join(
            f"{feature.name}={feature.render(value, level)}"
            for feature, value, level in zip(
                self.schema.features, self.values, self.levels
            )
        )
        return f"<{self.schema.name}: {rendered}>"


class GeneralizationPolicy:
    """A canonical chain of level vectors over a schema.

    The policy turns the generalization lattice into a chain: depth 0 is
    the all-wildcard vector, each subsequent depth specializes exactly one
    feature by a bounded step, and the final depth is fully specific.
    Because bit masks nest, projecting a key to depth ``d`` only needs the
    key's values masked at any deeper depth — which makes walking to a
    parent O(number of features).
    """

    def __init__(self, schema: FeatureSchema, level_vectors: Sequence[Tuple[int, ...]]):
        if not level_vectors:
            raise GranularityError("a policy needs at least one level vector")
        if any(level != 0 for level in level_vectors[0]):
            raise GranularityError("depth 0 must be the all-wildcard vector")
        if tuple(level_vectors[-1]) != schema.max_levels():
            raise GranularityError("the deepest vector must be fully specific")
        for shallow, deep in zip(level_vectors, level_vectors[1:]):
            if any(d < s for s, d in zip(shallow, deep)):
                raise GranularityError(
                    "level vectors must be monotonically specializing: "
                    f"{shallow} -> {deep}"
                )
            if shallow == tuple(deep):
                raise GranularityError(f"duplicate level vector {shallow}")
        self.schema = schema
        self.level_vectors: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(vector) for vector in level_vectors
        )
        for vector in self.level_vectors:
            if len(vector) != len(schema):
                raise GranularityError(
                    f"level vector {vector} arity does not match schema "
                    f"{schema.name!r} arity {len(schema)}"
                )
            for feature, level in zip(schema.features, vector):
                if not 0 <= level <= feature.max_level:
                    raise GranularityError(
                        f"level {level} out of range [0, {feature.max_level}] "
                        f"for feature {feature.name!r}"
                    )
        self._depth_by_vector: Dict[Tuple[int, ...], int] = {
            vector: depth for depth, vector in enumerate(self.level_vectors)
        }
        #: one precomputed projector per depth (the ingest hot path
        #: indexes this tuple directly instead of calling project())
        self.projectors: Tuple[Projector, ...] = tuple(
            self._build_projector(vector) for vector in self.level_vectors
        )

    def _build_projector(self, levels: Tuple[int, ...]) -> Projector:
        """Compile one depth's mask ladder into a closure.

        Features that use the stock bit masking collapse into a plain
        per-feature ``value & mask`` table; features with a custom
        :meth:`~repro.flows.features.Feature.mask` keep their bound
        method so overridden semantics are preserved.
        """
        features = self.schema.features
        if all(type(f).mask is Feature.mask for f in features):
            masks = tuple(
                0
                if level == 0
                else (((1 << level) - 1) << (feature.bits - level))
                for feature, level in zip(features, levels)
            )
            # compile an arity-specialized closure (namedtuple-style
            # codegen): unpack once, mask each slot with a literal, no
            # per-call zip/generator machinery
            arity = len(masks)
            if arity == 0:
                return lambda values: ()
            names = [f"v{i}" for i in range(arity)]
            terms = [
                "0" if mask == 0 else f"{name} & {mask}"
                for name, mask in zip(names, masks)
            ]
            trailing = "," if arity == 1 else ""
            source = (
                f"def project(values):\n"
                f"    {', '.join(names)}{trailing} = values\n"
                f"    return ({', '.join(terms)}{trailing})\n"
            )
            namespace: Dict[str, Projector] = {}
            exec(source, namespace)  # noqa: S102 - static, literal-only code
            project = namespace["project"]
        else:
            maskers = tuple(
                (feature.mask, level)
                for feature, level in zip(features, levels)
            )

            def project(
                values: Sequence[int], _maskers=maskers
            ) -> Tuple[int, ...]:
                return tuple(
                    mask(value, level)
                    for value, (mask, level) in zip(values, _maskers)
                )

        return project

    @property
    def depth(self) -> int:
        """The depth of fully-specific keys (root is depth 0)."""
        return len(self.level_vectors) - 1

    def levels_at(self, depth: int) -> Tuple[int, ...]:
        """The level vector used at ``depth``."""
        if not 0 <= depth <= self.depth:
            raise GranularityError(
                f"depth {depth} out of range [0, {self.depth}]"
            )
        return self.level_vectors[depth]

    def depth_of(self, levels: Sequence[int]) -> Optional[int]:
        """The canonical depth for a level vector, or None if off-chain."""
        try:
            return self._depth_by_vector.get(levels)  # type: ignore[arg-type]
        except TypeError:  # unhashable (list) input
            return self._depth_by_vector.get(tuple(levels))

    def project(self, values: Sequence[int], depth: int) -> Tuple[int, ...]:
        """Mask a value tuple down to the level vector of ``depth``."""
        if not 0 <= depth <= self.depth:
            raise GranularityError(
                f"depth {depth} out of range [0, {self.depth}]"
            )
        return self.projectors[depth](values)

    def key_at(self, key: FlowKey, depth: int) -> FlowKey:
        """Project a flow key onto the canonical chain at ``depth``."""
        if key.schema.name != self.schema.name:
            raise SchemaMismatchError(
                f"key schema {key.schema.name!r} != policy schema "
                f"{self.schema.name!r}"
            )
        return FlowKey(self.schema, key.values, self.levels_at(depth))

    def nearest_depth_at_or_above(self, levels: Sequence[int]) -> int:
        """The deepest canonical depth that is general enough for ``levels``.

        Used to answer queries for off-chain generalized keys: the
        returned depth's vector has every feature at least as specific as
        requested nowhere — i.e. it only generalizes, never specializes.
        """
        best = 0
        for depth, vector in enumerate(self.level_vectors):
            if all(v <= l for v, l in zip(vector, levels)):
                best = depth
        return best

    def shallowest_covering_depth(self, levels: Sequence[int]) -> int:
        """The shallowest canonical depth at least as specific as ``levels``.

        Nodes at the returned depth can be masked *up* to ``levels``,
        which is how off-chain queries are answered by summation.  The
        fully-specific final vector always qualifies, so this total
        function never fails.
        """
        for depth, vector in enumerate(self.level_vectors):
            if all(v >= l for v, l in zip(vector, levels)):
                return depth
        return self.depth

    def compatible_with(self, other: "GeneralizationPolicy") -> bool:
        """True if two policies produce mergeable trees."""
        return (
            self.schema.name == other.schema.name
            and self.level_vectors == other.level_vectors
        )

    @classmethod
    def build(
        cls,
        schema: FeatureSchema,
        steps: Iterable[Tuple[str, int]],
    ) -> "GeneralizationPolicy":
        """Build a policy from (feature name, new level) specialization steps.

        Steps run from the root downward; each step raises one feature's
        level.  Features never mentioned stay wildcarded until a step
        raises them, and the chain is completed to fully-specific levels
        automatically if the steps stop short.
        """
        current = [0] * len(schema)
        vectors = [tuple(current)]
        for feature_name, level in steps:
            index = schema.index_of(feature_name)
            if level <= current[index]:
                raise GranularityError(
                    f"step ({feature_name!r}, {level}) does not specialize "
                    f"beyond level {current[index]}"
                )
            current[index] = level
            vectors.append(tuple(current))
        if tuple(current) != schema.max_levels():
            for index, feature in enumerate(schema.features):
                if current[index] != feature.max_level:
                    current[index] = feature.max_level
                    vectors.append(tuple(current))
        return cls(schema, vectors)

    @classmethod
    def default_for(cls, schema: FeatureSchema) -> "GeneralizationPolicy":
        """The default chain used throughout the library.

        IPv4 features specialize in /8 increments (interleaved across the
        address features, destination first, to mirror how operators
        drill into traffic), then the protocol, then ports in 8-bit
        increments.  For the 5-tuple this yields a depth-13 chain.
        """
        ip_names = [
            f.name for f in schema.features if isinstance(f, IPv4Feature)
        ]
        proto_names = [
            f.name for f in schema.features if isinstance(f, ProtocolFeature)
        ]
        port_names = [
            f.name for f in schema.features if isinstance(f, PortFeature)
        ]
        other = [
            f
            for f in schema.features
            if f.name not in set(ip_names) | set(proto_names) | set(port_names)
        ]
        steps = []
        for level in (8, 16, 24, 32):
            for name in ip_names:
                steps.append((name, level))
        for name in proto_names:
            steps.append((name, 8))
        for level in (8, 16):
            for name in port_names:
                steps.append((name, level))
        for feature in other:
            steps.append((feature.name, feature.max_level))
        return cls.build(schema, steps)


#: The classic 5-feature flow schema of Section VI.
FIVE_TUPLE = FeatureSchema(
    "five_tuple",
    (
        ProtocolFeature("proto"),
        IPv4Feature("src_ip"),
        IPv4Feature("dst_ip"),
        PortFeature("src_port"),
        PortFeature("dst_port"),
    ),
)

#: A 2-feature schema: source and destination IP.
SRC_DST = FeatureSchema(
    "src_dst",
    (IPv4Feature("src_ip"), IPv4Feature("dst_ip")),
)

#: A 2-feature schema: destination IP and destination port.
DST_IP_PORT = FeatureSchema(
    "dst_ip_port",
    (IPv4Feature("dst_ip"), PortFeature("dst_port")),
)
