"""Smoke test of the end-to-end benchmark at 1/20 scale.

Not part of tier-1 (``testpaths`` stays ``tests/``); run it with
``PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py``.
"""

import json
import math

import pytest

from benchmarks.e2e import run, workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_schema_complete_and_gates_pass(name, trace):
    contract = run.load_contract()
    result = run.measure(name, 2019, 1.0, trace, True, None, contract)
    expected = contract["per_layer" if trace else "end_to_end"]
    assert {row[0]: row[1] for row in result["rows"]} == {
        metric["name"]: metric["unit"] for metric in expected
    }
    assert all(math.isfinite(row[3]) for row in result["rows"])
    assert result["failed"] == 0
    assert all(ok for _, ok, _ in result["gates"])
    if not trace:
        assert all(row[3] > 0 for row in result["rows"])


def test_a_corrupted_expected_total_fails_the_run(monkeypatch, capsys):
    real = run.spawn_pass

    def corrupted(*args, **kwargs):
        laps = real(*args, **kwargs)
        laps[0]["expected_mass"]["bytes"] += 1
        return laps

    monkeypatch.setattr(run, "spawn_pass", corrupted)
    assert run.main(["--smoke", "--workload", "serve_hot"]) == 1
    out = capsys.readouterr().out
    assert "GATE FAILED root_mass" in out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
