"""Tests for the FlowQL lexer, parser, and executor."""

import pytest

from repro.core.summary import TimeInterval
from repro.errors import FlowQLPlanningError, FlowQLSyntaxError
from repro.flowdb.db import FlowDB
from repro.flowql.ast import TimeSpec
from tests.flowql_reference import FlowQLExecutor
from repro.flowql.executor import apply_operator, compile_pattern
from repro.flowql.lexer import tokenize
from repro.flowql.parser import parse
from repro.flows.flowkey import FlowKey
from repro.flows.records import Score
from repro.flows.tree import Flowtree
from repro.runtime.presets import flat_runtime
from repro.simulation.traffic import TrafficConfig, TrafficGenerator


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT select SeLeCt")
        assert all(t.kind == "KEYWORD" for t in tokens[:-1])

    def test_ip_with_mask(self):
        tokens = tokenize("10.0.0.0/8")
        assert tokens[0].kind == "IP"
        assert tokens[0].text == "10.0.0.0/8"

    def test_plain_ip(self):
        assert tokenize("192.168.1.1")[0].kind == "IP"

    def test_number_vs_ip(self):
        tokens = tokenize("443 10.5")
        assert tokens[0].kind == "NUMBER"
        assert tokens[1].kind == "NUMBER"

    def test_site_path_is_ident(self):
        token = tokenize("region1/router1")[0]
        assert token.kind == "IDENT"

    def test_quoted_string(self):
        token = tokenize("'weird site'")[0]
        assert token.kind == "IDENT"
        assert token.text == "weird site"

    def test_unexpected_character(self):
        with pytest.raises(FlowQLSyntaxError) as exc:
            tokenize("SELECT @")
        assert exc.value.position == 7

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


class TestParser:
    def test_minimal_query(self):
        query = parse("SELECT TOTAL FROM ALL")
        assert query.select.name == "total"
        assert query.time == TimeSpec.all()
        assert query.metric == "bytes"

    def test_full_query(self):
        query = parse(
            "SELECT TOPK(10) FROM TIME(0, 3600) AT region1/router1, "
            "region2/router1 WHERE src_ip = 10.0.0.0/8 AND dst_port = 443 "
            "BY packets"
        )
        assert query.select.name == "topk"
        assert query.select.args == [10.0]
        assert query.time == TimeSpec(0.0, 3600.0)
        assert query.sites == ["region1/router1", "region2/router1"]
        assert len(query.where) == 2
        assert query.where[0].feature == "src_ip"
        assert query.where[0].mask == 8
        assert query.where[1].value == "443"
        assert query.metric == "packets"

    def test_vs_clause(self):
        query = parse("SELECT TOPK(3) FROM TIME(60,120) VS TIME(0,60)")
        assert query.vs_time == TimeSpec(0.0, 60.0)

    def test_groupby_args(self):
        query = parse("SELECT GROUPBY(src_ip, 8) FROM ALL")
        assert query.select.args == ["src_ip", 8.0]

    def test_unknown_operator(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT FROBNICATE FROM ALL")

    def test_wrong_arity(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOPK FROM ALL")
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOTAL(5) FROM ALL")

    def test_empty_time_window(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOTAL FROM TIME(60, 60)")

    def test_bad_metric(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOTAL FROM ALL BY gigabytes")

    def test_trailing_garbage(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOTAL FROM ALL EXTRA")


@pytest.fixture()
def loaded_db(policy, make_key):
    db = FlowDB()
    for epoch in range(3):
        for site in ("region1/router1", "region2/router1"):
            tree = Flowtree(policy, node_budget=None)
            tree.add(
                make_key(src_ip="10.0.0.1", dst_port=443),
                Score(10, 1000 * (epoch + 1), 1),
            )
            tree.add(
                make_key(src_ip="11.0.0.1", dst_port=80),
                Score(5, 500, 1),
            )
            db.insert(
                location=site,
                interval=TimeInterval(epoch * 60.0, (epoch + 1) * 60.0),
                tree=tree,
            )
    return db


class TestExecutor:
    def test_total(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute("SELECT TOTAL FROM ALL")
        # 2 sites x 3 epochs x (1000+2000+3000 + 3x500)
        assert result.scalar.bytes == 2 * (6000 + 1500)

    def test_total_windowed(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOTAL FROM TIME(0, 60)"
        )
        assert result.scalar.bytes == 2 * 1500

    def test_site_filter(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOTAL FROM ALL AT region1/router1"
        )
        assert result.scalar.bytes == 7500

    def test_repeated_site_counts_once(self, loaded_db):
        executor = FlowQLExecutor(loaded_db)
        once = executor.execute("SELECT TOTAL FROM ALL AT region1/router1")
        twice = executor.execute(
            "SELECT TOTAL FROM ALL AT region1/router1, region1/router1"
        )
        assert twice.scalar == once.scalar

    def test_query_with_where(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT QUERY FROM ALL WHERE src_ip = 10.0.0.0/8"
        )
        assert result.scalar.bytes == 2 * 6000

    def test_query_requires_where(self, loaded_db):
        with pytest.raises(FlowQLPlanningError):
            FlowQLExecutor(loaded_db).execute("SELECT QUERY FROM ALL")

    def test_topk(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOPK(1) FROM ALL BY bytes"
        )
        assert len(result.rows) == 1
        assert result.rows[0][2] == 2 * 6000  # the heavy 443 flow

    def test_topk_with_where(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOPK(5) FROM ALL WHERE dst_port = 80"
        )
        assert all("dst_port=80" in row[0] for row in result.rows)

    def test_groupby(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT GROUPBY(dst_port, 16) FROM ALL"
        )
        by_bytes = {row[0]: row[2] for row in result.rows}
        assert len(by_bytes) == 2

    def test_above(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT ABOVE(11000) FROM ALL BY bytes"
        )
        assert result.rows  # aggregate nodes above 11 kB exist
        assert all(row[2] > 11000 for row in result.rows)

    def test_hhh_fractional_threshold(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT HHH(0.5) FROM ALL BY bytes"
        )
        assert result.rows

    def test_diff_between_epochs(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT QUERY FROM TIME(120, 180) VS TIME(0, 60) "
            "WHERE src_ip = 10.0.0.1"
        )
        # epoch 3 (3000B/site) minus epoch 1 (1000B/site)
        assert result.scalar.bytes == 2 * 2000

    def test_drilldown(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT DRILLDOWN FROM ALL WHERE src_ip = 10.0.0.0/8"
        )
        assert result.rows

    def test_unknown_site(self, loaded_db):
        with pytest.raises(FlowQLPlanningError):
            FlowQLExecutor(loaded_db).execute(
                "SELECT TOTAL FROM ALL AT nowhere/router9"
            )

    def test_empty_window(self, loaded_db):
        with pytest.raises(FlowQLPlanningError):
            FlowQLExecutor(loaded_db).execute(
                "SELECT TOTAL FROM TIME(9000, 9999)"
            )

    def test_query_counter(self, loaded_db):
        executor = FlowQLExecutor(loaded_db)
        executor.execute("SELECT TOTAL FROM ALL")
        executor.execute("SELECT TOTAL FROM ALL")
        assert executor.queries_executed == 2


class TestTopKWhere:
    """A WHERE is a predicate inside TOPK: the level is filtered while
    it is ranked, never truncated first and filtered after."""

    def test_a_prefix_ranked_low_overall_gets_k_rows(self):
        # 203/8's third flow ranks 174th in the whole tree, past any
        # fixed over-fetch of the global top-k
        runtime = flat_runtime(["r1/a"], node_budget=4096)
        generator = TrafficGenerator(
            TrafficConfig(sites=("r1/a",), flows_per_epoch=4000), seed=7
        )
        runtime.ingest("r1/a", generator.epoch("r1/a", 0))
        runtime.close_epoch(60.0)
        outcome = runtime.query(
            "SELECT TOPK(3) FROM TIME(0, 60) "
            "WHERE src_ip = 203.0.0.0/8 BY packets"
        )
        assert [row[1] for row in outcome.result.rows] == [97, 78, 61]
        assert all("src_ip=203." in row[0] for row in outcome.result.rows)
        runtime.shutdown()

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT TOPK(5) FROM ALL BY packets",
            "SELECT TOPK(5) FROM ALL BY bytes",
            "SELECT TOPK(4) FROM ALL WHERE dst_port = 53 BY packets",
            "SELECT TOPK(4) FROM ALL WHERE src_ip = 128.0.0.0/1 BY bytes",
            "SELECT TOPK(3) FROM ALL WHERE proto = 17 AND dst_port = 80",
            "SELECT TOPK(500) FROM ALL WHERE dst_port = 443",
        ],
    )
    def test_equals_a_brute_force_pass_over_the_records(
        self, policy, random_flows, text
    ):
        records = random_flows(300, seed=3)
        records += random_flows(100, seed=3)[:60]  # repeated keys add up
        tree = Flowtree(policy, node_budget=None)
        tree.ingest(records)
        query = parse(text)
        pattern = compile_pattern(tree, query.where)
        sums = {}
        for record in records:
            if pattern is None or pattern.contains(record.key):
                sums[record.key] = (
                    sums.get(record.key, Score.zero()) + record.score()
                )
        ranked = sorted(
            sums.items(),
            key=lambda item: (-item[1].metric(query.metric), item[0].values),
        )[: int(query.select.args[0])]
        expected = [
            (str(key), score.packets, score.bytes, score.flows)
            for key, score in ranked
        ]
        assert expected
        assert apply_operator([(1, tree)], query).rows == expected


#: how a record set splits into operands: one sign per operand; record
#: ``i`` lands in operand ``i % len(signs)``
SHAPES = {
    "one tree": (1,),
    "three operands": (1, 1, 1),
    "VS": (1, 1, -1),
}


class TestExactAnswers:
    """TOPK and ABOVE, with and without WHERE, over one tree, over
    several operands and over a ``VS``, against a brute-force pass over
    the records: every canonical generalization of every record, each
    record's score times its operand's sign."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT TOPK(6) FROM ALL BY packets",
            "SELECT TOPK(4) FROM ALL WHERE dst_port = 53 BY bytes",
            "SELECT TOPK(5) FROM ALL WHERE src_ip = 128.0.0.0/1 BY flows",
            "SELECT ABOVE(40) FROM ALL BY packets",
            "SELECT ABOVE(30) FROM ALL WHERE proto = 17 BY packets",
            "SELECT ABOVE(0) FROM ALL WHERE src_ip = 64.0.0.0/2 BY bytes",
        ],
    )
    def test_equals_a_brute_force_pass_over_the_records(
        self, policy, random_flows, text, shape
    ):
        signs = SHAPES[shape]
        records = random_flows(240, seed=11)
        records += random_flows(90, seed=11)[:50]  # repeated keys add up
        trees = [Flowtree(policy, node_budget=None) for _ in signs]
        for index, record in enumerate(records):
            trees[index % len(signs)].ingest([record])
        query = parse(text)
        pattern = compile_pattern(trees[0], query.where)
        topk = query.select.name == "topk"
        depths = [policy.depth] if topk else range(1, policy.depth + 1)
        sums = {}
        for index, record in enumerate(records):
            score = record.score()
            if signs[index % len(signs)] < 0:
                score = -score
            for depth in depths:
                key = FlowKey(
                    policy.schema,
                    policy.project(record.key.values, depth),
                    policy.levels_at(depth),
                )
                if pattern is None or pattern.contains(key):
                    sums[(depth, key)] = (
                        sums.get((depth, key), Score.zero()) + score
                    )
        metric = query.metric
        ranked = sorted(
            sums.items(),
            key=lambda item: (
                -item[1].metric(metric), item[0][1].values, item[0][0]
            ),
        )
        bound = int(query.select.args[0])
        if topk:
            ranked = ranked[:bound]
        else:
            ranked = [
                item for item in ranked if item[1].metric(metric) > bound
            ]
        expected = [
            (str(key), score.packets, score.bytes, score.flows)
            for (_, key), score in ranked
        ]
        assert expected
        operands = list(zip(signs, trees))
        assert apply_operator(operands, query).rows == expected

    @staticmethod
    def signed_trees(policy, random_flows, signs):
        """Uncompressed operand trees and their records' signed scores."""
        records = random_flows(240, seed=11)
        records += random_flows(90, seed=11)[:50]  # repeated keys add up
        trees = [Flowtree(policy, node_budget=None) for _ in signs]
        scored = []
        for index, record in enumerate(records):
            trees[index % len(signs)].ingest([record])
            score = record.score()
            scored.append(
                (record, -score if signs[index % len(signs)] < 0 else score)
            )
        return list(zip(signs, trees)), scored

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(
        "where",
        [
            "dst_port = 53",
            "src_ip = 128.0.0.0/1",
            "src_ip = 64.0.0.0/2 AND proto = 17",
        ],
    )
    def test_off_chain_query_sums_the_records_under_it(
        self, policy, random_flows, where, shape
    ):
        operands, scored = self.signed_trees(
            policy, random_flows, SHAPES[shape]
        )
        query = parse(f"SELECT QUERY FROM ALL WHERE {where}")
        pattern = compile_pattern(operands[0][1], query.where)
        assert policy.depth_of(pattern.levels) is None  # off the chain
        expected = Score.zero()
        for record, score in scored:
            if pattern.contains(record.key):
                expected = expected + score
        assert expected.packets
        assert apply_operator(operands, query).scalar == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT GROUPBY(src_ip, 8) FROM ALL WHERE proto = 17 BY bytes",
            "SELECT GROUPBY(dst_port, 16) FROM ALL "
            "WHERE src_ip = 128.0.0.0/1 BY packets",
        ],
    )
    def test_groupby_under_a_where_groups_the_records_under_it(
        self, policy, random_flows, text, shape
    ):
        operands, scored = self.signed_trees(
            policy, random_flows, SHAPES[shape]
        )
        query = parse(text)
        pattern = compile_pattern(operands[0][1], query.where)
        feature_name, level = query.select.args[0], int(query.select.args[1])
        schema = policy.schema
        index = schema.index_of(feature_name)
        levels = [0] * len(schema)
        levels[index] = level
        wildcard = [0] * len(schema)
        sums = {}
        for record, score in scored:
            if not pattern.contains(record.key):
                continue
            values = list(wildcard)
            values[index] = schema.features[index].mask(
                record.key.values[index], level
            )
            group = tuple(values)
            sums[group] = sums.get(group, Score.zero()) + score
        ranked = sorted(
            sums.items(),
            key=lambda item: (-item[1].metric(query.metric), item[0]),
        )
        expected = [
            (str(FlowKey(schema, values, tuple(levels))), score.packets,
             score.bytes, score.flows)
            for values, score in ranked
        ]
        assert len(expected) > 1
        assert apply_operator(operands, query).rows == expected


class TestFlowDB:
    def test_insert_and_stats(self, loaded_db):
        stats = loaded_db.stats()
        assert stats["entries"] == 6
        assert stats["locations"] == 2
        assert len(loaded_db) == 6

    def test_entries_window(self, loaded_db):
        entries = loaded_db.entries(start=60.0, end=120.0)
        assert len(entries) == 2
        assert all(e.interval.start == 60.0 for e in entries)

    def test_incompatible_policy_rejected(self, loaded_db):
        from repro.errors import SchemaMismatchError
        from repro.flows.flowkey import SRC_DST, GeneralizationPolicy

        other = Flowtree(GeneralizationPolicy.default_for(SRC_DST))
        with pytest.raises(SchemaMismatchError):
            loaded_db.insert("x", TimeInterval(0, 1), other)

    def test_insert_summary_kind_check(self, loaded_db):
        from repro.core.summary import DataSummary, Location, SummaryMeta
        from repro.errors import SchemaMismatchError

        bad = DataSummary(
            kind="sample",
            meta=SummaryMeta(TimeInterval(0, 1), Location("x")),
            payload=[],
            size_bytes=0,
        )
        with pytest.raises(SchemaMismatchError):
            loaded_db.insert_summary(bad)


class TestLimitClause:
    @pytest.fixture()
    def loaded_db(self, policy, make_key):
        db = FlowDB()
        for epoch in range(2):
            for site in ("a/r1", "b/r1"):
                tree = Flowtree(policy, node_budget=None)
                for port in (80, 443, 53):
                    tree.add(
                        make_key(dst_port=port, src_port=1000 + epoch),
                        Score(1, 100 * port, 1),
                    )
                db.insert(
                    location=site,
                    interval=TimeInterval(epoch * 60.0, (epoch + 1) * 60.0),
                    tree=tree,
                )
        return db

    def test_parse_limit(self):
        query = parse("SELECT TOPK(10) FROM ALL LIMIT 3")
        assert query.limit == 3

    def test_limit_truncates_rows(self, loaded_db):
        executor = FlowQLExecutor(loaded_db)
        unlimited = executor.execute("SELECT GROUPBY(dst_port, 16) FROM ALL")
        limited = executor.execute(
            "SELECT GROUPBY(dst_port, 16) FROM ALL LIMIT 1"
        )
        assert len(unlimited.rows) == 3
        assert len(limited.rows) == 1
        assert limited.rows[0] == unlimited.rows[0]

    def test_limit_after_metric(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOPK(10) FROM ALL BY packets LIMIT 2"
        )
        assert len(result.rows) == 2

    def test_invalid_limit(self):
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOPK(10) FROM ALL LIMIT 0")
        with pytest.raises(FlowQLSyntaxError):
            parse("SELECT TOPK(10) FROM ALL LIMIT x")

    def test_limit_on_scalar_is_noop(self, loaded_db):
        result = FlowQLExecutor(loaded_db).execute(
            "SELECT TOTAL FROM ALL LIMIT 5"
        )
        assert result.scalar is not None
