"""The ``wk.*`` points are derived on the coordinator from a result's stamps.

A worker traces nothing: each result frame carries ``t_recv_w``,
``wait_s``, ``service_s`` and ``t_send_w``, and the coordinator turns them
into one ``wk.dequeue`` / ``wk.service`` / ``wk.encode`` / ``wk.send`` per
hop, mapped through its per-worker clock fit.  Checked on a two-worker
journal, per item and micro-batched: one of each point per ``span.phases``
record, in order, inside the hop, and agreeing with ``stage.service``.

Stage functions live at module level so forked workers can resolve them.
"""

import time
from collections import Counter

import pytest

from repro.backend import DistributedBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.obs import read_journal

WK_KINDS = ("wk.dequeue", "wk.service", "wk.encode", "wk.send")
N = 40


def _inc(x):
    return x + 1


def _slow_triple(x):
    time.sleep(0.002)
    return x * 3


@pytest.fixture(params=[None, 8], ids=["items", "batched"])
def journal(request, tmp_path):
    path = tmp_path / "timing.jsonl"
    pipe = PipelineSpec(
        (
            StageSpec(name="inc", work=0.001, fn=_inc),
            StageSpec(name="triple", work=0.002, fn=_slow_triple),
        )
    )
    with DistributedBackend(pipe, spawn_workers=2) as b:
        session = b.open(telemetry=path, batching=request.param)
        for i in range(N):
            session.submit(i)
        assert session.drain() == [(x + 1) * 3 for x in range(N)]
        session.close()
    return list(read_journal(path))


def test_every_hop_yields_one_of_each_point(journal):
    per_stage = Counter((r["kind"], r["stage"]) for r in journal if "stage" in r)
    for stage in (0, 1):
        hops = per_stage["span.phases", stage]
        assert hops >= 1
        assert [per_stage[kind, stage] for kind in WK_KINDS] == [hops] * 4, stage
    # Each point names its hop exactly as span.phases does: (stage, first gseq).
    hops = {(r["stage"], r["seq"]): r for r in journal if r["kind"] == "span.phases"}
    for kind in WK_KINDS:
        assert {(r["stage"], r["seq"]) for r in journal if r["kind"] == kind} == set(hops)


def test_points_are_ordered_inside_their_hop(journal):
    err = {}  # worker -> widest clock-fit error bound it reported
    for r in journal:
        if r["kind"] == "clock.sync":
            err[r["worker"]] = max(err.get(r["worker"], 0.0), r["err"])
    assert set(err) == {0, 1}
    by_hop: dict = {}
    for r in journal:
        if r["kind"] in ("item.dispatch", "span.phases", "stage.service", *WK_KINDS):
            by_hop.setdefault((r["stage"], r["seq"]), {})[r["kind"]] = r
    for (stage, seq), hop in by_hop.items():
        dequeue, service, send = hop["wk.dequeue"], hop["wk.service"], hop["wk.send"]
        assert dequeue["t"] <= service["t"] <= hop["wk.encode"]["t"] == send["t"]
        # Same host, one CLOCK_MONOTONIC: a mapped time is off by at most
        # the fit's rtt/2 bound (1 ms slack, as for the offset itself).
        slack = err[send["worker"]] + 1e-3
        assert hop["item.dispatch"]["t"] - slack <= dequeue["t"], (stage, seq)
        assert send["t"] <= hop["span.phases"]["t"] + slack, (stage, seq)
        assert service["seconds"] == hop["stage.service"]["seconds"]
        assert service["seconds"] == hop["span.phases"]["service"]
        assert hop["wk.encode"]["seconds"] == hop["span.phases"]["encode"]
        assert dequeue["wait"] == hop["span.phases"]["worker_queue"]
        assert hop["wk.encode"]["nbytes"] > 0
