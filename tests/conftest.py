"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging
import random

import pytest
from hypothesis import settings

from repro.core.summary import Location
from repro.flows.flowkey import FIVE_TUPLE, GeneralizationPolicy
from repro.flows.records import FlowRecord, Score
from repro.simulation.traffic import TrafficConfig, TrafficGenerator

# No example database: a laptop and CI explore the same way, and a
# regression lives in the test file as an explicit @example (a failure
# prints the blob to commit), never in a git-ignored .hypothesis/.
settings.register_profile("repro", database=None, print_blob=True)
settings.load_profile("repro")


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.ERROR)
        self.records: list = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture(autouse=True)
def asyncio_errors_fail_the_test():
    """An ERROR the ``asyncio`` logger saw during a test fails it.

    asyncio reports an exception that escaped a connection callback or
    a task only by logging it, so a serving-plane bug would otherwise
    pass as a dropped connection.
    """
    handler = _Records()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "asyncio logged an error:\n"
            + "\n".join(handler.format(r) for r in handler.records)
        )


@pytest.fixture(scope="session")
def policy() -> GeneralizationPolicy:
    """The default 5-tuple generalization policy (depth 13)."""
    return GeneralizationPolicy.default_for(FIVE_TUPLE)


@pytest.fixture()
def location() -> Location:
    return Location("cloud/region1/router1")


@pytest.fixture()
def make_key():
    """Factory for fully-specific 5-tuple keys."""

    def _make(
        proto: int = 6,
        src_ip: str = "10.1.2.3",
        dst_ip: str = "192.168.0.1",
        src_port: int = 12345,
        dst_port: int = 443,
    ):
        return FIVE_TUPLE.key(
            proto=proto,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
        )

    return _make


@pytest.fixture()
def random_flows(make_key):
    """Deterministic batch of random flow records."""

    def _make(count: int = 200, seed: int = 1, epoch: int = 0):
        rng = random.Random(seed)
        start = epoch * 60.0
        records = []
        for _ in range(count):
            key = FIVE_TUPLE.key(
                proto=rng.choice([6, 17]),
                src_ip=rng.randrange(2**32),
                dst_ip=rng.randrange(2**32),
                src_port=rng.randrange(1024, 65536),
                dst_port=rng.choice([80, 443, 53]),
            )
            packets = rng.randrange(1, 50)
            first = start + rng.uniform(0, 50)
            records.append(
                FlowRecord(
                    key=key,
                    packets=packets,
                    bytes=packets * rng.randrange(64, 1500),
                    first_seen=first,
                    last_seen=first + rng.uniform(0, 9),
                )
            )
        return records

    return _make


@pytest.fixture()
def traffic_generator() -> TrafficGenerator:
    """A small, fast traffic generator over two sites."""
    return TrafficGenerator(
        TrafficConfig(
            sites=("region1/router1", "region2/router1"),
            flows_per_epoch=400,
            external_hosts=2000,
        ),
        seed=7,
    )


def score(packets: int = 1, bytes: int = 100, flows: int = 1) -> Score:
    """Shorthand score constructor used across tests."""
    return Score(packets=packets, bytes=bytes, flows=flows)
