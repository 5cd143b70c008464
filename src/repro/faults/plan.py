"""Seeded, deterministic link-fault schedules.

Table I names *unreliable connections* and *limited bandwidth* as core
challenges of distributed mega-datasets; DPM-Bench-style evaluations
drive distributed algorithms explicitly under degraded networks.  A
:class:`FaultPlan` is the repository's failure model: a reproducible
schedule of probabilistic transfer drops, per-link outage windows
(expressed in epochs), and bandwidth degradation, consulted by
:class:`~repro.hierarchy.network.NetworkFabric` on every hop.

Determinism matters more than realism here: the same plan replayed over
the same transfer sequence makes the same decisions, which is what lets
the hypothesis suite pin *root-mass conservation after recovery* across
arbitrary fault schedules, and lets benchmarks compare drop rates on
identical traces.  Drops are derived from a hash of ``(seed, link,
per-link attempt counter)`` — no global RNG state, no ordering
sensitivity between links.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import PlacementError

#: Failure reasons reported to :class:`~repro.errors.TransferError`.
REASON_DROP = "drop"
REASON_OUTAGE = "outage"


def _matches(pattern: str, path: str) -> bool:
    """Whether a link-endpoint pattern names a hierarchy path.

    Patterns are matched against the endpoint's full path, or as a
    root-relative suffix (``region1/router1`` matches
    ``cloud/region1/router1``) so CLI specs can use site labels.
    """
    return (
        path == pattern
        or path.endswith("/" + pattern)
    )


@dataclass(frozen=True)
class LinkOutage:
    """One link is down for a half-open window of epochs.

    ``link`` names either endpoint of the affected link (site-label
    suffixes allowed); every link touching a matching endpoint is down
    for epochs ``start_epoch <= epoch < end_epoch``.
    """

    link: str
    start_epoch: int
    end_epoch: int

    def __post_init__(self) -> None:
        if self.end_epoch <= self.start_epoch:
            raise PlacementError(
                f"outage window must be non-empty, got "
                f"[{self.start_epoch}, {self.end_epoch})"
            )

    def covers(self, epoch: int, upper: str, lower: str) -> bool:
        """Whether this outage takes the (upper, lower) link down now."""
        if not self.start_epoch <= epoch < self.end_epoch:
            return False
        return _matches(self.link, upper) or _matches(self.link, lower)


@dataclass(frozen=True)
class RestartDrill:
    """A scheduled process kill + recovery (durability faults).

    After the close of epoch ``epoch`` (0-based) — i.e. at an epoch
    boundary, the system's durability point — the store at
    root-relative ``site`` is killed and reopened from the runtime's
    storage engine: live aggregator state, catalogs, and the pending
    queue are discarded, then recovered from the last manifest.  Naming
    the hierarchy *root* restarts the whole runtime (FlowDB index,
    every store, every queue), which is the ROADMAP crash drill: root
    mass after recovery must be bit-identical to an uninterrupted run.
    """

    site: str
    epoch: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise PlacementError(
                f"restart epoch must be non-negative, got {self.epoch}"
            )
        if not self.site:
            raise PlacementError("restart drill needs a site path")


#: Reconfiguration ops a drill may trigger (elastic-topology faults).
RECONFIG_OPS = ("join", "leave", "migrate")


@dataclass(frozen=True)
class ReconfigDrill:
    """One scheduled live-reconfiguration op (topology faults).

    After the close of epoch ``epoch`` (0-based), the runtime applies
    ``op`` to the site at root-relative ``path``: ``join`` attaches a
    new site there, ``leave`` drains it out (migrating its state), and
    ``migrate`` re-homes it under ``new_parent``.  Drills exercise the
    elastic-topology machinery *under* whatever link faults the rest of
    the plan schedules — the combination the root-mass conservation
    property pins.
    """

    op: str
    path: str
    epoch: int
    new_parent: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in RECONFIG_OPS:
            raise PlacementError(
                f"unknown reconfig op {self.op!r}; known: "
                f"{list(RECONFIG_OPS)}"
            )
        if self.epoch < 0:
            raise PlacementError(
                f"reconfig epoch must be non-negative, got {self.epoch}"
            )
        if not self.path:
            raise PlacementError("reconfig drill needs a site path")
        if self.op == "migrate" and self.new_parent is None:
            raise PlacementError(
                "reconfig op 'migrate' needs a new parent "
                "(migrate:<path>><new_parent>:<epoch>)"
            )


@dataclass
class FaultPlan:
    """A deterministic schedule of link faults.

    * ``drop_probability`` — chance that any single transfer attempt on
      any link is lost mid-flight (independent per attempt, derived
      deterministically from ``seed`` and a per-link attempt counter).
    * ``outages`` — hard per-link downtime windows in epoch units.
    * ``bandwidth_factor`` — global capacity degradation in ``(0, 1]``;
      ``bandwidth_factors`` overrides it per link pattern.
    * ``epoch_seconds`` — how transfer times map to epoch indexes for
      the outage windows; the runtime binds its own epoch length here
      when the plan is injected without an explicit value.
    * ``reconfigs`` — scheduled live-topology ops (join/leave/migrate)
      applied by the runtime after the named epoch's close.
    * ``restarts`` — scheduled store kills + recoveries at epoch
      boundaries, exercising the storage engine's crash-restart path.
    """

    seed: int = 0
    drop_probability: float = 0.0
    outages: List[LinkOutage] = field(default_factory=list)
    bandwidth_factor: float = 1.0
    bandwidth_factors: Dict[str, float] = field(default_factory=dict)
    epoch_seconds: Optional[float] = None
    reconfigs: List[ReconfigDrill] = field(default_factory=list)
    restarts: List[RestartDrill] = field(default_factory=list)
    _attempts: Dict[Tuple[str, str], int] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise PlacementError(
                f"drop_probability must be in [0, 1), got "
                f"{self.drop_probability}"
            )
        for factor in [self.bandwidth_factor, *self.bandwidth_factors.values()]:
            if not 0.0 < factor <= 1.0:
                raise PlacementError(
                    f"bandwidth factors must be in (0, 1], got {factor}"
                )
        if self.epoch_seconds is not None and not (
            math.isfinite(self.epoch_seconds) and self.epoch_seconds > 0.0
        ):
            raise PlacementError(
                f"epoch_seconds must be finite and positive, got "
                f"{self.epoch_seconds}"
            )

    # -- schedule queries ---------------------------------------------------

    def epoch_of(self, at_time: float) -> int:
        """The epoch index a transfer time falls into."""
        seconds = self.epoch_seconds or 60.0
        return int(at_time // seconds)

    def link_down(self, upper: str, lower: str, at_time: float) -> bool:
        """Whether an outage window has this link down at ``at_time``."""
        epoch = self.epoch_of(at_time)
        return any(o.covers(epoch, upper, lower) for o in self.outages)

    def degradation(self, upper: str, lower: str) -> float:
        """The bandwidth factor applying to one link."""
        for pattern, factor in self.bandwidth_factors.items():
            if _matches(pattern, upper) or _matches(pattern, lower):
                return factor
        return self.bandwidth_factor

    def failure(
        self, upper: str, lower: str, at_time: float
    ) -> Optional[str]:
        """The failure verdict for one transfer attempt on one link.

        Returns ``None`` (attempt succeeds), :data:`REASON_OUTAGE`, or
        :data:`REASON_DROP`.  Every call advances the link's attempt
        counter, so verdicts are deterministic for a given call
        sequence regardless of what other links do in between.
        """
        key = (upper, lower)
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if self.link_down(upper, lower, at_time):
            return REASON_OUTAGE
        if self.drop_probability <= 0.0:
            return None
        draw = random.Random(
            f"{self.seed}|{upper}|{lower}|{attempt}"
        ).random()
        return REASON_DROP if draw < self.drop_probability else None

    def reset(self) -> None:
        """Forget attempt history (between independent experiment runs)."""
        self._attempts.clear()

    # -- CLI spec -----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        The spec is comma-separated ``key=value`` items::

            drop=0.2,seed=7,bw=0.5,outage=region1/router1:1-3,epoch=60

        ``outage`` may repeat; its value is ``<link>:<start>-<end>``
        (epochs, end exclusive).  ``bw`` may also be scoped to a link:
        ``bw=region1:0.25``.  ``reconfig`` may repeat; its value is
        ``<op>:<path>[><new_parent>]:<epoch>`` — apply a live topology
        op (``join``/``leave``/``migrate``) after that epoch's close,
        e.g. ``reconfig=leave:region1/router2:1`` or
        ``reconfig=migrate:region1/router1>region2:2``.
        ``restart`` may repeat; its value is ``<site>:<epoch>`` — kill
        the named store (or the whole runtime, when ``site`` is the
        hierarchy root) after that epoch's close and recover it from
        the storage engine.
        """
        plan = cls()
        for item in filter(None, (part.strip() for part in spec.split(","))):
            if "=" not in item:
                raise PlacementError(
                    f"fault spec item {item!r} is not key=value"
                )
            key, value = (part.strip() for part in item.split("=", 1))
            try:
                if key == "drop":
                    plan.drop_probability = float(value)
                elif key == "seed":
                    plan.seed = int(value)
                elif key == "epoch":
                    plan.epoch_seconds = float(value)
                elif key == "bw":
                    if ":" in value:
                        pattern, factor = value.rsplit(":", 1)
                        plan.bandwidth_factors[pattern] = float(factor)
                    else:
                        plan.bandwidth_factor = float(value)
                elif key == "outage":
                    link, window = value.rsplit(":", 1)
                    start, end = window.split("-", 1)
                    plan.outages.append(
                        LinkOutage(link, int(start), int(end))
                    )
                elif key == "reconfig":
                    op, _, rest = value.partition(":")
                    path, sep, epoch = rest.rpartition(":")
                    if not sep:
                        raise PlacementError(
                            f"reconfig spec {value!r} needs "
                            "<op>:<path>[><new_parent>]:<epoch>"
                        )
                    target, gt, new_parent = path.partition(">")
                    plan.reconfigs.append(
                        ReconfigDrill(
                            op=op,
                            path=target,
                            epoch=int(epoch),
                            new_parent=new_parent if gt else None,
                        )
                    )
                elif key == "restart":
                    site, sep, epoch = value.rpartition(":")
                    if not sep:
                        raise PlacementError(
                            f"restart spec {value!r} needs <site>:<epoch>"
                        )
                    plan.restarts.append(RestartDrill(site, int(epoch)))
                else:
                    raise PlacementError(
                        f"unknown fault spec key {key!r}; known: "
                        "drop, seed, epoch, bw, outage, reconfig, restart"
                    )
            except ValueError as exc:
                raise PlacementError(
                    f"malformed fault spec item {item!r}: {exc}"
                ) from exc
        plan.__post_init__()  # re-validate mutated fields
        return plan

    def describe(self) -> str:
        """One-line, human-readable schedule summary."""
        parts = [f"drop={self.drop_probability:g}", f"seed={self.seed}"]
        if self.bandwidth_factor != 1.0:
            parts.append(f"bw={self.bandwidth_factor:g}")
        for pattern, factor in self.bandwidth_factors.items():
            parts.append(f"bw[{pattern}]={factor:g}")
        for outage in self.outages:
            parts.append(
                f"outage[{outage.link}]="
                f"{outage.start_epoch}-{outage.end_epoch}"
            )
        for drill in self.reconfigs:
            where = drill.path
            if drill.new_parent:
                where += f">{drill.new_parent}"
            parts.append(f"reconfig[{where}]={drill.op}@{drill.epoch}")
        for restart in self.restarts:
            parts.append(f"restart[{restart.site}]@{restart.epoch}")
        return " ".join(parts)
