"""Tests for controller rules, conflict resolution, and the manager."""

import pytest

from repro.control.controller import ACTUATION_DELAY_S, Controller
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.control.rules import ControlRule
from repro.core.registry import default_registry
from repro.core.summary import Location
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import TriggerFiring
from repro.errors import PlacementError, RuleConflictError
from repro.simulation.sensors import Actuator

LOC = Location("hq/factory1/line1")


def firing(trigger_id="overheat", time=10.0, payload=99.0):
    return TriggerFiring(
        trigger_id=trigger_id,
        stream_id="s",
        time=time,
        payload=payload,
        installed_by="test",
    )


@pytest.fixture()
def controller():
    ctl = Controller(LOC)
    ctl.register_actuator(Actuator("arm1", LOC))
    ctl.register_actuator(Actuator("arm2", LOC))
    return ctl


class TestRuleInstallation:
    def test_install_and_fire(self, controller):
        controller.install_rule(
            ControlRule("r1", command="stop", target_actuator="arm1")
        )
        actions = controller.on_trigger(firing())
        assert len(actions) == 1
        assert actions[0].command == "stop"
        assert actions[0].latency == pytest.approx(ACTUATION_DELAY_S)
        assert controller.actuator("arm1").commands[0].command == "stop"

    def test_duplicate_rule_id(self, controller):
        controller.install_rule(
            ControlRule("r1", command="stop", target_actuator="arm1")
        )
        with pytest.raises(RuleConflictError):
            controller.install_rule(
                ControlRule("r1", command="go", target_actuator="arm1")
            )

    def test_unknown_actuator(self, controller):
        with pytest.raises(RuleConflictError):
            controller.install_rule(
                ControlRule("r", command="stop", target_actuator="ghost")
            )

    def test_conflicting_rules_rejected(self, controller):
        controller.install_rule(
            ControlRule(
                "a", command="stop", target_actuator="arm1",
                exclusive_group="motion", priority=1,
            )
        )
        with pytest.raises(RuleConflictError):
            controller.install_rule(
                ControlRule(
                    "b", command="go", target_actuator="arm1",
                    exclusive_group="motion", priority=1,
                )
            )
        assert "b" in controller.rejected_rules

    def test_different_priorities_allowed(self, controller):
        controller.install_rule(
            ControlRule(
                "a", command="stop", target_actuator="arm1",
                exclusive_group="motion", priority=1,
            )
        )
        controller.install_rule(
            ControlRule(
                "b", command="go", target_actuator="arm1",
                exclusive_group="motion", priority=5,
            )
        )
        actions = controller.on_trigger(firing())
        # only the higher-priority rule wins the exclusive group
        assert len(actions) == 1
        assert actions[0].command == "go"

    def test_same_command_same_group_allowed(self, controller):
        controller.install_rule(
            ControlRule(
                "a", command="stop", target_actuator="arm1",
                exclusive_group="motion", priority=1,
            )
        )
        controller.install_rule(
            ControlRule(
                "b", command="stop", target_actuator="arm1",
                exclusive_group="motion", priority=1,
            )
        )

    def test_certification_enforced(self):
        controller = Controller(LOC, require_certification=True)
        controller.register_actuator(Actuator("arm1", LOC))
        with pytest.raises(RuleConflictError):
            controller.install_rule(
                ControlRule("r", command="stop", target_actuator="arm1")
            )
        controller.install_rule(
            ControlRule(
                "r", command="stop", target_actuator="arm1", certified=True
            )
        )

    def test_remove_rule(self, controller):
        controller.install_rule(
            ControlRule("r", command="stop", target_actuator="arm1")
        )
        controller.remove_rule("r")
        assert controller.on_trigger(firing()) == []
        with pytest.raises(RuleConflictError):
            controller.remove_rule("r")


class TestRuleMatching:
    def test_trigger_id_filter(self, controller):
        controller.install_rule(
            ControlRule(
                "r", command="stop", target_actuator="arm1",
                trigger_id="overheat",
            )
        )
        assert controller.on_trigger(firing("overheat"))
        assert not controller.on_trigger(firing("other"))

    def test_condition_filter(self, controller):
        controller.install_rule(
            ControlRule(
                "r",
                command="slow",
                target_actuator="arm1",
                condition=lambda f: f.payload > 100,
            )
        )
        assert not controller.on_trigger(firing(payload=50))
        assert controller.on_trigger(firing(payload=150))

    def test_independent_actuators_both_fire(self, controller):
        controller.install_rule(
            ControlRule("r1", command="stop", target_actuator="arm1")
        )
        controller.install_rule(
            ControlRule("r2", command="stop", target_actuator="arm2")
        )
        assert len(controller.on_trigger(firing())) == 2


class TestManager:
    def make_manager(self):
        manager = Manager()
        store = DataStore(Location("hq/factory1"), RoundRobinStorage(10**7))
        manager.register_store(store)
        return manager, store

    def test_requirement_installs_aggregator(self):
        manager, store = self.make_manager()
        requirement = ApplicationRequirement(
            app_name="app",
            aggregator_name="vib",
            kind="timebin",
            location=Location("hq/factory1/line1/machine1"),
            precision=30.0,
        )
        aggregator = manager.submit_requirement(requirement)
        assert store.aggregator("vib") is aggregator
        assert aggregator.primitive.bin_seconds == 30.0

    def test_covering_store_walks_up(self):
        manager, store = self.make_manager()
        assert manager.covering_store(
            Location("hq/factory1/line2/machine9")
        ) is store
        with pytest.raises(PlacementError):
            manager.covering_store(Location("elsewhere/x"))

    def test_requirement_reuse_checks_kind(self):
        manager, _ = self.make_manager()
        base = ApplicationRequirement(
            app_name="a",
            aggregator_name="x",
            kind="timebin",
            location=Location("hq/factory1"),
        )
        manager.submit_requirement(base)
        clash = ApplicationRequirement(
            app_name="b",
            aggregator_name="x",
            kind="sample",
            location=Location("hq/factory1"),
        )
        with pytest.raises(PlacementError):
            manager.submit_requirement(clash)

    def test_shared_aggregator_survives_withdrawal(self):
        manager, store = self.make_manager()
        for app in ("a", "b"):
            manager.submit_requirement(
                ApplicationRequirement(
                    app_name=app,
                    aggregator_name="shared",
                    kind="timebin",
                    location=Location("hq/factory1"),
                )
            )
        assert manager.withdraw_application("a") == 0
        assert store.aggregator("shared") is not None
        assert manager.withdraw_application("b") == 1
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            store.aggregator("shared")

    def test_retune(self):
        manager, store = self.make_manager()
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a",
                aggregator_name="x",
                kind="timebin",
                location=Location("hq/factory1"),
                config={"bin_seconds": 1.0},
            )
        )
        manager.retune(Location("hq/factory1"), "x", 60.0)
        assert store.aggregator("x").primitive.bin_seconds == 60.0

    def test_close_epochs_and_status(self):
        manager, store = self.make_manager()
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a",
                aggregator_name="x",
                kind="timebin",
                location=Location("hq/factory1"),
            )
        )
        store.ingest("s", 1.0, 0.5)
        created = manager.close_epochs(60.0)
        assert created == 1
        status = manager.status()
        assert len(status) == 1
        assert status[0].partitions == 1
        assert status[0].aggregators == 1

    def test_authorization_enforced(self):
        from repro.datastore.privacy import (
            AuthorizationContext,
            PrivacyViolation,
        )

        manager = Manager(require_authorization=True)
        store = DataStore(Location("hq/factory1"), RoundRobinStorage(10**7))
        manager.register_store(store)
        requirement = ApplicationRequirement(
            app_name="a",
            aggregator_name="x",
            kind="timebin",
            location=Location("hq/factory1"),
        )
        with pytest.raises(PrivacyViolation):
            manager.submit_requirement(requirement)
        operator = AuthorizationContext("op", frozenset({"operate"}))
        with pytest.raises(PrivacyViolation):
            manager.submit_requirement(requirement, context=operator)
        deployer = AuthorizationContext("dep", frozenset({"deploy"}))
        manager.submit_requirement(requirement, context=deployer)
        manager.retune(
            Location("hq/factory1"), "x", 60.0, context=operator
        )
        with pytest.raises(PrivacyViolation):
            manager.withdraw_application("a", context=operator)
        assert manager.withdraw_application("a", context=deployer) == 1

    def test_precision_mapping_for_flowtree(self, policy):
        manager, store = self.make_manager()
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a",
                aggregator_name="ft",
                kind="flowtree",
                location=Location("hq/factory1"),
                config={"policy": policy},
                precision=512,
            )
        )
        assert store.aggregator("ft").primitive.node_budget == 512

    @pytest.mark.parametrize("kind", sorted(default_registry().kinds()))
    def test_precision_reaches_every_kind(self, kind, policy):
        """A requirement's precision sets the kind's own granularity
        knob, whatever the kind."""
        manager, store = self.make_manager()
        precision = 0.5 if kind == "sample" else 64
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a",
                aggregator_name="agg",
                kind=kind,
                location=Location("hq/factory1"),
                config={"policy": policy},
                precision=precision,
            )
        )
        knob = {
            "sample": "rate",
            "timebin": "bin_seconds",
            "heavy_hitter": "capacity",
            "count_min": "width",
            "reservoir": "capacity",
            "flowtree": "node_budget",
            "hhh": "capacity_per_level",
            "quantile": "k",
            "raw": "budget_bytes",
        }[kind]
        primitive = store.aggregator("agg").primitive
        assert type(primitive).granularity_param == knob
        assert primitive.summary().attrs[knob] == precision
