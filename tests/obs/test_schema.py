"""Every schema kind earns its entry: some layer emits it and the docs list it.

``SCHEMA`` is what a subscriber relies on.  A kind no code emits is a
subscription that can never fire — what deleting a capability leaves behind
when its kind stays — and a kind missing from the table in
``docs/observability.md`` is one an operator cannot find.  Emitters live
outside ``repro.obs`` (which only consumes events), so a kind counts as
emitted when a module outside it names the kind as a string constant that is
not merely a ``wants()`` probe.
"""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.obs.events import SCHEMA

SRC = Path(repro.__file__).resolve().parent
DOC = SRC.parents[1] / "docs" / "observability.md"


def _named_kinds() -> set[str]:
    """String constants equal to a schema kind, in modules outside repro.obs."""
    named = set()
    for path in SRC.rglob("*.py"):
        if path.relative_to(SRC).parts[0] == "obs":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        probes = {
            id(arg)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wants"
            for arg in node.args
        }
        named.update(
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value in SCHEMA
            and id(node) not in probes
        )
    return named


def _documented_kinds() -> set[str]:
    """``prefix.kind`` pairs from the kinds table (| `prefix.` | `a`, `b` | ...)."""
    row = re.compile(r"^\|\s*`(\w+)\.`\s*\|([^|]*)\|", re.MULTILINE)
    return {
        f"{prefix}.{kind}"
        for prefix, kinds in row.findall(DOC.read_text(encoding="utf-8"))
        for kind in re.findall(r"`(\w+)`", kinds)
    }


NAMED = _named_kinds()
DOCUMENTED = _documented_kinds()


@pytest.mark.parametrize("kind", sorted(SCHEMA))
def test_every_kind_has_an_emitter(kind):
    assert kind in NAMED, f"{kind!r} is in SCHEMA but nothing outside repro.obs emits it"


@pytest.mark.parametrize("kind", sorted(SCHEMA))
def test_every_kind_is_documented(kind):
    assert kind in DOCUMENTED, f"{kind!r} has no row in docs/observability.md"


def test_the_docs_list_no_kind_outside_the_schema():
    assert DOCUMENTED and DOCUMENTED <= SCHEMA.keys()


def test_a_hop_is_one_kind_and_its_phases_ride_in_it():
    # The distributed hop's decomposition and its dispatch are not kinds of
    # their own: stage.service documents the phase fields, no consumer
    # subscribes to the old kinds, and a subscriber that asks for one is
    # told it does not exist.
    from repro.obs.events import EventBus
    from repro.obs.metrics import MetricsRecorder
    from repro.obs.spans import SpanCollector

    gone = {"span.phases", "item.dispatch"}
    assert not gone & (SCHEMA.keys() | set(SpanCollector.KINDS) | set(MetricsRecorder.KINDS))
    for field in ("nbytes", "wire_out", "worker_queue", "encode", "wire_back"):
        assert field in SCHEMA["stage.service"], field
    for kind in sorted(gone):
        with pytest.raises(ValueError, match="unknown event kinds"):
            EventBus().subscribe(lambda ev: None, kinds=[kind])
