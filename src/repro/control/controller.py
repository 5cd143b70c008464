"""The Controller building block ("resolve conflicts & decide").

One controller guards the machines of one location.  It subscribes to
its data store's trigger engine; when a trigger fires, matching rules
are evaluated, conflicts are resolved by priority (per actuator and
exclusive group), and the winning command is dispatched to the actuator
after a small actuation delay.  Rule installation validates against
already-installed rules and — per Section III.C — can require rules to
be *certified* before acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.control.rules import ControlRule
from repro.core.summary import Location
from repro.datastore.triggers import TriggerFiring
from repro.errors import RuleConflictError
from repro.simulation.sensors import Actuator

#: Simulated trigger-to-actuator dispatch delay in seconds: the local
#: control path is sub-millisecond, which is what lets it meet the
#: machine-level deadline of Figure 1.
ACTUATION_DELAY_S = 0.0005


@dataclass(frozen=True)
class ControlAction:
    """One command the controller issued."""

    rule_id: str
    command: str
    actuator_id: str
    triggered_by: str
    fired_at: float
    actuated_at: float

    @property
    def latency(self) -> float:
        """Trigger-to-actuation delay."""
        return self.actuated_at - self.fired_at


class Controller:
    """Local control logic for one location."""

    def __init__(
        self,
        location: Location,
        require_certification: bool = False,
    ) -> None:
        self.location = location
        self.require_certification = require_certification
        self._rules: Dict[str, ControlRule] = {}
        self._actuators: Dict[str, Actuator] = {}
        self.actions: List[ControlAction] = []
        self.rejected_rules: List[str] = []

    # -- wiring ----------------------------------------------------------

    def register_actuator(self, actuator: Actuator) -> None:
        """Make an actuator addressable by rules."""
        self._actuators[actuator.actuator_id] = actuator

    def actuator(self, actuator_id: str) -> Actuator:
        """Fetch a registered actuator."""
        try:
            return self._actuators[actuator_id]
        except KeyError as exc:
            raise RuleConflictError(
                f"no actuator {actuator_id!r} at {self.location.path!r}"
            ) from exc

    # -- rule management (applications install via the manager) ------------

    def install_rule(self, rule: ControlRule) -> None:
        """Validate and install a rule.

        Raises :class:`RuleConflictError` on duplicate ids, missing
        certification (when enforced), unknown actuators, or an
        unresolvable conflict with an installed rule.
        """
        if rule.rule_id in self._rules:
            raise RuleConflictError(f"duplicate rule id {rule.rule_id!r}")
        if self.require_certification and not rule.certified:
            self.rejected_rules.append(rule.rule_id)
            raise RuleConflictError(
                f"rule {rule.rule_id!r} is not certified; this controller "
                "requires certified rules"
            )
        if rule.target_actuator not in self._actuators:
            raise RuleConflictError(
                f"rule {rule.rule_id!r} targets unknown actuator "
                f"{rule.target_actuator!r}"
            )
        for installed in self._rules.values():
            if rule.conflicts_with(installed):
                self.rejected_rules.append(rule.rule_id)
                raise RuleConflictError(
                    f"rule {rule.rule_id!r} conflicts with installed rule "
                    f"{installed.rule_id!r} (group "
                    f"{rule.exclusive_group!r}, equal priority, commands "
                    f"{rule.command!r} vs {installed.command!r})"
                )
        self._rules[rule.rule_id] = rule

    def rules(self) -> List[ControlRule]:
        """All installed rules."""
        return list(self._rules.values())

    # -- the control cycle ----------------------------------------------

    def on_trigger(self, firing: TriggerFiring) -> List[ControlAction]:
        """Handle one trigger firing: match, resolve, actuate.

        Runtime conflict resolution: among matching rules, group by
        (actuator, exclusive group) and dispatch only the
        highest-priority command per group (ties broken by rule id for
        determinism — install-time checks prevent contradictory ties).
        """
        matching = [rule for rule in self._rules.values() if rule.matches(firing)]
        winners: Dict[tuple, ControlRule] = {}
        for rule in matching:
            slot = (rule.target_actuator, rule.exclusive_group or rule.rule_id)
            current = winners.get(slot)
            if (
                current is None
                or rule.priority > current.priority
                or (
                    rule.priority == current.priority
                    and rule.rule_id < current.rule_id
                )
            ):
                winners[slot] = rule
        actions: List[ControlAction] = []
        for rule in winners.values():
            actuated_at = firing.time + ACTUATION_DELAY_S
            self.actuator(rule.target_actuator).actuate(
                command=rule.command,
                issued_at=firing.time,
                received_at=actuated_at,
                source=rule.rule_id,
            )
            action = ControlAction(
                rule_id=rule.rule_id,
                command=rule.command,
                actuator_id=rule.target_actuator,
                triggered_by=firing.trigger_id,
                fired_at=firing.time,
                actuated_at=actuated_at,
            )
            self.actions.append(action)
            actions.append(action)
        return actions
