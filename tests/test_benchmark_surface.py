"""What the frozen benchmark uses of ``repro`` still exists.

``perfbench/`` is frozen: it may not change, so a deletion in ``src`` that
removes a name it imports would only surface when the benchmark is next run.
This reads every ``from repro... import name`` in ``perfbench/*.py`` (and,
for an imported module, each ``module.attr`` the same file reads) and checks
that the name resolves — the same lookup the benchmark makes, without
running it.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _used_names() -> list[tuple[str, str]]:
    """Sorted, de-duplicated ``(module, name)`` pairs the benchmark reads."""
    used = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> "module.name" for names imported from repro
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                for alias in node.names:
                    used.add((node.module, alias.name))
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound
                and _is_module(bound[node.value.id])
            ):
                used.add((bound[node.value.id], node.attr))
    return sorted(used)


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


USED = _used_names()


def test_the_benchmark_reads_names_from_repro():
    modules = {module for module, _ in USED}
    assert {"repro.skel.api", "repro.util.ordering", "repro.transport"} <= modules


@pytest.mark.parametrize("module, name", USED, ids=[f"{m}:{n}" for m, n in USED])
def test_a_name_the_benchmark_uses_still_exists(module, name):
    assert hasattr(importlib.import_module(module), name), f"perfbench reads {module}.{name}"


def test_the_ordering_and_batch_probes_still_run():
    # Instance-level uses the import walk cannot see (perfbench/probes.py's
    # ordering and batch probes); no src caller uses either.
    from repro.util.batching import Batch, map_batch
    from repro.util.ordering import SequenceReorderer

    r = SequenceReorderer()
    assert list(r.push_range(0, ["a", "b"])) == [(0, "a"), (1, "b")]
    batch = map_batch(str.upper, Batch(["a", "b"], 0, 0, 0))
    assert list(batch.items) == ["A", "B"]
