"""Tests for controller rules, conflict resolution, and the manager."""

import pytest

from repro.control.controller import ACTUATION_DELAY_S, Controller
from repro.control.manager import Manager
from repro.control.requirements import ApplicationRequirement
from repro.control.rules import ControlRule
from repro.core.registry import default_registry
from repro.core.summary import Location
from repro.datastore.aggregator import Aggregator
from repro.datastore.storage import RoundRobinStorage
from repro.datastore.store import DataStore
from repro.datastore.triggers import TriggerFiring
from repro.errors import PlacementError, RuleConflictError, StorageError
from repro.runtime.presets import flat_runtime
from repro.scenarios.network import NetworkScenario
from repro.simulation.sensors import Actuator
from repro.simulation.traffic import TrafficConfig, TrafficGenerator
from repro.storage import SegmentLogEngine

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


def one_store_manager(**kwargs):
    """A Manager over a one-entry store table (the Manager alone)."""
    store = DataStore(Location("hq/factory1"), RoundRobinStorage(10**7))
    return Manager({store.location.path: store}, **kwargs), store


class TestManager:
    def make_manager(self):
        return one_store_manager()

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
        """The runtime's close seals what the Manager installed, and
        the Manager's status reads the runtime's one store table."""
        scenario = NetworkScenario(
            regions=1, routers_per_region=1,
            with_trends=False, with_matrix=False, with_ddos=False,
        )
        runtime, manager = scenario.runtime, scenario.manager
        assert manager._stores is runtime._stores
        (site,) = scenario.sites
        manager.submit_requirement(
            ApplicationRequirement(
                app_name="a",
                aggregator_name="x",
                kind="timebin",
                location=site,
            )
        )
        store = runtime.store_at(site)
        store.ingest("s", 1.0, 0.5)
        runtime.close_epoch(60.0)
        assert len(store.catalog) == 1
        status = manager.status()
        assert len(status) == 1
        assert status[0].partitions == 1
        assert status[0].aggregators == 1

    def test_foreign_aggregator_is_refused(self):
        """An aggregator installed by hand is the store's: a requirement
        naming it and a retune of it are refused, and a withdrawal
        leaves it."""
        manager, store = self.make_manager()
        own = manager.registry.create("timebin", store.location, {})
        store.install_aggregator(Aggregator("x", own))
        requirement = ApplicationRequirement(
            app_name="a",
            aggregator_name="x",
            kind="timebin",
            location=Location("hq/factory1"),
        )
        with pytest.raises(PlacementError, match="installed by hand"):
            manager.submit_requirement(requirement)
        with pytest.raises(PlacementError):
            manager.retune(Location("hq/factory1"), "x", 60.0)
        assert manager.withdraw_application("a") == 0
        assert store.aggregator("x").primitive is own

    def test_authorization_enforced(self):
        from repro.datastore.privacy import (
            AuthorizationContext,
            PrivacyViolation,
        )

        manager, _ = one_store_manager(require_authorization=True)
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


def flat_flows(runtime, epoch=0, flows=200):
    """Feed one epoch of traffic into every ingest site."""
    sites = runtime.ingest_sites()
    generator = TrafficGenerator(
        TrafficConfig(sites=tuple(sites), flows_per_epoch=flows), seed=5
    )
    for site in sites:
        runtime.ingest(site, generator.epoch(site, epoch))
    return flows * len(sites)


class TestManagerWritesOnlyWhatItCreated:
    """The Manager writes only the aggregators it created; a level's
    aggregator and budget belong to the runtime."""

    def test_retune_of_a_level_aggregator_is_refused(self, tmp_path):
        runtime = flat_runtime(
            ["r1/a"], node_budget=4096, storage=SegmentLogEngine(tmp_path)
        )
        (store,) = runtime.stores()
        level = runtime.hierarchy.node(store.location).level.name
        with pytest.raises(PlacementError, match="its level's own"):
            runtime.manager.retune(store.location, "flowtree", 512)
        assert runtime.levels[level].node_budget == 4096
        assert store.aggregator("flowtree").primitive.node_budget == 4096
        assert runtime.model.ledger.op_counts == {}
        flat_flows(runtime)
        runtime.close_epoch(60.0)
        reopened = flat_runtime(
            ["r1/a"], node_budget=4096, storage=SegmentLogEngine(tmp_path)
        )
        (again,) = reopened.stores()
        assert again.aggregator("flowtree").primitive.node_budget == 4096

    def test_requirement_naming_a_level_aggregator_is_refused(self):
        runtime = flat_runtime(["r1/a"], node_budget=4096)
        (store,) = runtime.stores()
        level_aggregator = store.aggregator("flowtree")
        with pytest.raises(PlacementError, match="not to the Manager"):
            runtime.manager.submit_requirement(
                ApplicationRequirement(
                    app_name="app",
                    aggregator_name="flowtree",
                    kind="flowtree",
                    location=store.location,
                    precision=512,
                )
            )
        assert runtime.manager.withdraw_application("app") == 0
        assert store.aggregator("flowtree") is level_aggregator
        assert level_aggregator.primitive.node_budget == 4096
        ingested = flat_flows(runtime)
        runtime.close_epoch(60.0)
        total = runtime.query("SELECT TOTAL FROM ALL").scalar
        assert total.flows == ingested

    def test_withdraw_after_a_move_removes_every_created_aggregator(self):
        scenario = NetworkScenario(
            regions=2, routers_per_region=2, flows_per_epoch=300, seed=3,
            with_ddos=False,
        )
        scenario.run(epochs=1)
        runtime, manager = scenario.runtime, scenario.manager
        created = {
            aggregator.name: aggregator
            for store in runtime.stores()
            for aggregator in store.aggregators()
        }
        renames = runtime.migrate_store("network/region1/router2", "network")
        moved = runtime.store_at(Location("cloud/network/router2"))
        assert renames["cloud/network/region1/router2"] == moved.location.path
        assert manager.covering_store(moved.location) is moved
        assert manager.withdraw_application("network-trends") == 4
        left = [
            aggregator
            for store in runtime.stores()
            for aggregator in store.aggregators()
        ]
        assert not [a for a in left if a.name.startswith("trends/")]
        matrix = sorted(a.name for a in left if a.name.startswith("matrix/"))
        assert len(matrix) == 4
        assert all(created[a.name] is a for a in left)
        assert moved.aggregator("matrix/cloud/network/region1/router2")
        assert manager.withdraw_application("traffic-matrix") == 4
        assert not any(store.aggregators() for store in runtime.stores())
