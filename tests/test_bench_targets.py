"""The benchmark's view of the package still resolves.

The bench tracer wraps each name in ``bench/tracing.py`` ``TARGETS`` and the
workloads call ``lorid`` module attributes by name; running the bench takes
minutes, so this guard reads those files instead.  It checks that each of
those names resolves to a ``lorid`` attribute, so a rename or deletion that
would crash a traced run fails here at once.  It does not check that a
workload calls what the tracer wraps: a name that still resolves but that no
workload reaches reads 0 in its per-layer count, and passes here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("layer, owner, attribute, amount", TRACING.TARGETS,
                         ids=[f"{t[1]}.{t[2]}" for t in TRACING.TARGETS])
def test_trace_target_resolves(layer, owner, attribute, amount):
    obj = TRACING._resolve(owner)
    assert callable(getattr(obj, attribute, None)), f"{layer}: {owner} has no {attribute}"


def _lorid_attributes(path: Path) -> list[tuple[str, str]]:
    """Every ``(module, attribute)`` that ``path`` reads off a ``lorid`` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: dict[str, str] = {}
    used: list[tuple[str, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lorid":
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if importlib.util.find_spec(name) is not None:
                    modules[alias.asname or alias.name] = name
                else:
                    used.append((node.module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lorid" and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.append((modules[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("name", ["workloads.py", "checks.py"])
def test_lorid_attributes_used_by_bench_exist(name):
    used = _lorid_attributes(BENCH / name)
    missing = [f"{m}.{a}" for m, a in used if not hasattr(importlib.import_module(m), a)]
    assert not missing, f"bench/{name} uses missing names: {missing}"


def test_workloads_reads_the_package():
    """The scan sees the workloads' calls, so the test above is not vacuous."""
    used = set(_lorid_attributes(BENCH / "workloads.py"))
    assert ("lorid.cli", "toy_task_artifacts") in used
    assert ("lorid.cli", "run_calibration") in used
