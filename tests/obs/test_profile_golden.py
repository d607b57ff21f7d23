"""Golden output of ``python -m repro.obs.profile`` on two committed journals.

``golden/threads_batched.jsonl`` is a two-stage threads session with
``batching=4`` over two streams of 8 items (each ``stage.service`` covers a
batch of 4); ``golden/distributed.jsonl`` a two-stage, two-worker
distributed stream of 10 items whose ``stage.service`` records carry their
hop's phases.  The ``.json`` and ``.slowest3.txt`` files beside them are the
profiler's ``--json`` and ``--slowest 3`` output: any drift in the join, the
tiling, the stage aggregates or the verdict changes them.
"""

from pathlib import Path

import pytest

from repro.obs.profile import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("journal", ["threads_batched", "distributed"])
@pytest.mark.parametrize("args, suffix", [(["--json"], ".json"),
                                          (["--slowest", "3"], ".slowest3.txt")])
def test_profile_output_is_the_golden_one(journal, args, suffix, capsys):
    assert main([str(GOLDEN / f"{journal}.jsonl"), *args]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{journal}{suffix}").read_text(encoding="utf-8")
