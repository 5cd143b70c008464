"""Package health: every module imports, exports resolve, versions agree."""

import importlib
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
    for package_name in (
        "repro.core",
        "repro.flows",
        "repro.datastore",
        "repro.analytics",
        "repro.control",
        "repro.apps",
        "repro.hierarchy",
        "repro.faults",
        "repro.flowdb",
        "repro.flowql",
        "repro.flowstream",
        "repro.query",
        "repro.runtime",
        "repro.replication",
        "repro.simulation",
        "repro.scenarios",
    ):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert getattr(package, name, None) is not None, (
                f"{package_name}.{name}"
            )


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


def test_version_matches_pyproject():
    import pathlib
    import re

    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
    )
    assert match is not None
    assert repro.__version__ == match.group(1)
