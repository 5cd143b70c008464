"""Package health: every module imports, exports resolve, versions agree."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import repro


def _walk_module_names():
    names = ["repro"]
    for module in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(module.name)
    return names


@pytest.mark.parametrize("module_name", _walk_module_names())
def test_module_imports(module_name):
    importlib.import_module(module_name)


def test_all_exports_resolve():
    for name in repro.__all__:
        if name == "__version__":
            continue
        assert getattr(repro, name, None) is not None, name


def test_subpackage_all_exports_resolve():
    for module_name in _walk_module_names():
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name, None) is not None, (
                f"{module_name}.{name}"
            )


def test_no_process_global_randomness():
    """A combine or a read is a function of its inputs alone: no module
    holds a ``random.Random`` of its own, and nothing draws from the
    ``random`` module's global state."""
    root = pathlib.Path(repro.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(root.parent)
        # what runs per call; default arguments run at import
        per_call = {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for statement in scope.body
            for node in ast.walk(statement)
        } | {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, ast.Lambda)
            for node in ast.walk(scope.body)
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
            ):
                continue
            if node.func.attr != "Random":
                hits.append(f"{where}:{node.lineno} random.{node.func.attr}")
            elif id(node) not in per_call:
                hits.append(f"{where}:{node.lineno} module-level Random")
    assert hits == []


def test_benchmark_ledger_entry_points_resolve():
    """The end-to-end benchmark wraps these names from outside; a
    refactor that renames one must fail here, not in a traced pass."""
    from benchmarks.e2e.ledger import ENTRY_POINTS

    for span, module_name, class_name, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if class_name is None:
            assert callable(getattr(module, attr, None)), span
        else:
            assert attr in getattr(module, class_name).__dict__, span


def test_benchmark_gate_table_resolves():
    """Every row of ``benchmarks/check_regression.py``'s table names a
    drill that exists, a tier-1 test that exists, and gates of a known
    kind; the committed rows parse against the row schema and hold
    against the table."""
    from benchmarks import check_regression
    from benchmarks.conftest import KINDS, RESULTS_PATH

    for bench, (owner, gates) in check_regression.TABLE.items():
        drill = importlib.import_module(f"benchmarks.bench_{bench}")
        assert callable(drill.measure) and drill.SIZES, bench
        path, *names = owner.split("::")
        target = importlib.import_module(path[: -len(".py")].replace("/", "."))
        for name in names:
            target = getattr(target, name, None)
        assert callable(target), owner
        assert {kind for _, _, kind, _ in gates} <= set(KINDS), bench
    rows = check_regression.load(RESULTS_PATH)
    assert {row[0] for row in rows} == set(check_regression.TABLE)
    for bench in check_regression.TABLE:
        mine = [row for row in rows if row[0] == bench]
        assert check_regression.check(bench, mine, mine) == []


def test_flowtree_keeps_one_node_registry():
    """A tree's nodes live in ``Flowtree._index`` and nowhere else.  A
    flat ``_nodes`` dict or a per-node child map coming back — through
    a new reader — is a second registry to keep
    in step, and the child map is a reference cycle per node.  (The
    hierarchy's own ``node.children`` in ``elastic/`` and ``hierarchy/``
    is a different thing.)"""
    import pathlib
    import re

    src = pathlib.Path(__file__).parent.parent / "src"
    flows = src / "repro" / "flows"
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert "._nodes" not in text, path
        if flows in path.parents:
            assert not re.search(r"\bchildren\b", text), path


def test_numpy_stays_off_the_import_path():
    """The package depends on nothing: no module under ``src/`` imports
    numpy, and importing the runtime leaves it out of ``sys.modules``
    — an optional dependency on every run's setup
    path costs import time and resident memory nothing uses."""
    import os
    import pathlib
    import re
    import subprocess
    import sys

    src = pathlib.Path(__file__).parent.parent / "src"
    for path in sorted(src.rglob("*.py")):
        assert not re.search(
            r"^\s*(import|from)\s+numpy\b", path.read_text(), re.MULTILINE
        ), path
    probe = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro, repro.runtime; "
            "print('numpy' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == "False"


def test_version_matches_pyproject():
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
    )
    assert match is not None
    assert repro.__version__ == match.group(1)
