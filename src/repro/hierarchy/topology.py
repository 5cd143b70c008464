"""Hierarchy topologies for both use cases (Figure 1).

A :class:`Hierarchy` is a tree of named locations, each tagged with a
*level* (machine / production line / factory / cloud, or router /
region / network / cloud) and the level's **decision deadline** — the
paper's "decision making at the machine resp. factory level may require
results between 1 second and 1 minute".  The deadline is what the
Figure 3 benchmark compares control-loop latencies against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.summary import Location
from repro.errors import PlacementError

#: Decision deadlines from Figure 1a, in seconds.
MACHINE_DEADLINE = 1.0
LINE_DEADLINE = 60.0
EDGE_DEADLINE = 7 * 24 * 3600.0  # "< 1w"


@dataclass(frozen=True)
class LevelSpec:
    """One level of a hierarchy: its name and decision deadline."""

    name: str
    deadline_seconds: Optional[float]


@dataclass
class HierarchyNode:
    """One site in the hierarchy."""

    location: Location
    level: LevelSpec
    children: List["HierarchyNode"] = field(default_factory=list)
    parent: Optional["HierarchyNode"] = None

    def add_child(self, name: str, level: LevelSpec) -> "HierarchyNode":
        """Create and attach a child node one level down."""
        child = HierarchyNode(
            location=self.location.child(name), level=level, parent=self
        )
        self.children.append(child)
        return child

    def walk(self) -> Iterator["HierarchyNode"]:
        """This node and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> List["HierarchyNode"]:
        """All leaf descendants (the data-producing sites)."""
        return [node for node in self.walk() if not node.children]

    def ancestors(self) -> List["HierarchyNode"]:
        """Parent chain from this node's parent up to the root."""
        chain = []
        node = self.parent
        while node is not None:
            chain.append(node)
            node = node.parent
        return chain

    def rebase(self, location: Location) -> Dict[str, str]:
        """Rewrite this subtree's locations under a new base path.

        Returns ``{old_path: new_path}`` for every node touched, so
        callers can re-key stores, labels, and pending queues.
        """
        renames: Dict[str, str] = {}
        stack: List[Tuple["HierarchyNode", Location]] = [(self, location)]
        while stack:
            node, where = stack.pop()
            renames[node.location.path] = where.path
            node.location = where
            for child in node.children:
                stack.append((child, where.child(child.location.parts[-1])))
        return renames


class Hierarchy:
    """A location tree with lookup and path operations."""

    def __init__(self, root: HierarchyNode) -> None:
        self.root = root
        self._by_location: Dict[str, HierarchyNode] = {}
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the location index after structural edits."""
        self._by_location = {
            node.location.path: node for node in self.root.walk()
        }

    def node(self, location: Location) -> HierarchyNode:
        """Find the node at a location."""
        try:
            return self._by_location[location.path]
        except KeyError as exc:
            raise PlacementError(
                f"no hierarchy node at location {location.path!r}"
            ) from exc

    def __contains__(self, location: Location) -> bool:
        return location.path in self._by_location

    def nodes(self) -> List[HierarchyNode]:
        """All nodes, depth-first from the root."""
        return list(self.root.walk())

    def leaves(self) -> List[HierarchyNode]:
        """All data-producing leaf sites."""
        return self.root.leaves()

    def levels(self) -> List[LevelSpec]:
        """The distinct levels present, root-first."""
        seen: List[LevelSpec] = []
        for node in self.root.walk():
            if node.level not in seen:
                seen.append(node.level)
        return seen

    def nodes_at_level(self, level_name: str) -> List[HierarchyNode]:
        """All nodes whose level has the given name."""
        return [n for n in self.root.walk() if n.level.name == level_name]

    # -- structural mutation (the elastic-topology primitives) --------------

    def add_site(
        self, parent: Location, name: str, level: LevelSpec
    ) -> HierarchyNode:
        """Attach a new child site under an existing node and reindex."""
        parent_node = self.node(parent)
        if any(
            child.location.parts[-1] == name
            for child in parent_node.children
        ):
            raise PlacementError(
                f"{parent.path!r} already has a child named {name!r}"
            )
        child = parent_node.add_child(name, level)
        self.reindex()
        return child

    def remove(self, location: Location) -> HierarchyNode:
        """Detach a subtree from its parent and reindex.

        The returned node keeps its children (and their locations) — it
        can be re-attached elsewhere with :meth:`graft`.  Removing the
        root is a :class:`~repro.errors.PlacementError`.
        """
        node = self.node(location)
        if node.parent is None:
            raise PlacementError("cannot remove the hierarchy root")
        node.parent.children.remove(node)
        node.parent = None
        self.reindex()
        return node

    def graft(
        self, node: HierarchyNode, new_parent: Location
    ) -> Dict[str, str]:
        """Attach a detached subtree under a new parent, rewriting paths.

        Every location in the subtree is rebased under the new parent;
        returns ``{old_path: new_path}`` for the whole subtree so
        callers can re-key any state indexed by path.
        """
        if node.parent is not None:
            raise PlacementError(
                f"{node.location.path!r} is still attached; remove it first"
            )
        parent_node = self.node(new_parent)
        name = node.location.parts[-1]
        if any(
            child.location.parts[-1] == name
            for child in parent_node.children
        ):
            raise PlacementError(
                f"{new_parent.path!r} already has a child named {name!r}"
            )
        renames = node.rebase(parent_node.location.child(name))
        node.parent = parent_node
        parent_node.children.append(node)
        self.reindex()
        return renames

    @classmethod
    def from_site_paths(
        cls,
        sites: Sequence[str],
        root: str = "cloud",
        root_level: str = "cloud",
        level_names: Optional[Sequence[str]] = None,
        deadlines: Optional[Sequence[Optional[float]]] = None,
    ) -> "Hierarchy":
        """Grow a root-anchored hierarchy covering every site path.

        ``sites`` are ``/``-separated paths below the root
        (``region1/router1``); shared prefixes share nodes.  Depth ``d``
        (0-based below the root) is labeled ``level_names[d]`` when
        provided — with per-level decision ``deadlines`` parallel to it
        — and ``level{d+1}`` otherwise.  This is the one site-path
        parser behind every runtime topology.
        """
        if not sites:
            raise PlacementError("from_site_paths needs at least one site")
        root_node = HierarchyNode(Location(root), LevelSpec(root_level, None))
        hierarchy = cls(root_node)
        for site in sites:
            parts = [part for part in site.split("/") if part]
            if not parts:
                raise PlacementError(f"empty site path {site!r}")
            if level_names is not None and len(parts) > len(level_names):
                raise PlacementError(
                    f"site {site!r} is {len(parts)} levels deep but only "
                    f"{list(level_names)} are named"
                )
            node = root_node
            for depth, part in enumerate(parts):
                existing = next(
                    (
                        child
                        for child in node.children
                        if child.location.parts[-1] == part
                    ),
                    None,
                )
                if existing is None:
                    name = (
                        level_names[depth]
                        if level_names is not None
                        else f"level{depth + 1}"
                    )
                    deadline = (
                        deadlines[depth]
                        if deadlines is not None and depth < len(deadlines)
                        else None
                    )
                    existing = node.add_child(part, LevelSpec(name, deadline))
                node = existing
        hierarchy.reindex()
        return hierarchy

    def path_between(
        self, origin: Location, destination: Location
    ) -> List[HierarchyNode]:
        """The hierarchy route: up to the common ancestor, then down.

        Returns the full node sequence including both endpoints; the
        number of edges is ``len(path) - 1``.
        """
        a, b = self.node(origin), self.node(destination)
        up: List[HierarchyNode] = [a]
        ancestors_of_b = {id(node) for node in [b] + b.ancestors()}
        while id(up[-1]) not in ancestors_of_b:
            parent = up[-1].parent
            if parent is None:
                raise PlacementError(
                    f"no route between {origin.path!r} and {destination.path!r}"
                )
            up.append(parent)
        meeting = up[-1]
        down: List[HierarchyNode] = []
        node: Optional[HierarchyNode] = b
        while node is not None and id(node) != id(meeting):
            down.append(node)
            node = node.parent
        return up + list(reversed(down))


def smart_factory_hierarchy(
    factories: int = 2,
    lines_per_factory: int = 3,
    machines_per_line: int = 8,
) -> Hierarchy:
    """The Figure 1a topology: cloud → factory → line → machine."""
    cloud = LevelSpec("cloud", None)
    factory = LevelSpec("factory", EDGE_DEADLINE)
    line = LevelSpec("line", LINE_DEADLINE)
    machine = LevelSpec("machine", MACHINE_DEADLINE)
    root = HierarchyNode(Location("hq"), cloud)
    for f in range(factories):
        factory_node = root.add_child(f"factory{f + 1}", factory)
        for l in range(lines_per_factory):
            line_node = factory_node.add_child(f"line{l + 1}", line)
            for m in range(machines_per_line):
                line_node.add_child(f"machine{m + 1}", machine)
    return Hierarchy(root)


def network_monitoring_hierarchy(
    regions: int = 4,
    routers_per_region: int = 4,
) -> Hierarchy:
    """The Figure 1b topology: cloud → network → region → router."""
    cloud = LevelSpec("cloud", None)
    network = LevelSpec("network", EDGE_DEADLINE)
    region = LevelSpec("region", LINE_DEADLINE)
    router = LevelSpec("router", MACHINE_DEADLINE)
    root = HierarchyNode(Location("cloud"), cloud)
    network_node = root.add_child("network", network)
    for r in range(regions):
        region_node = network_node.add_child(f"region{r + 1}", region)
        for router_index in range(routers_per_region):
            region_node.add_child(f"router{router_index + 1}", router)
    return Hierarchy(root)
