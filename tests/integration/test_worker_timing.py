"""One record per hop: the coordinator derives ``span.phases`` from a result's stamps.

A worker traces nothing: each hop in a result's trail carries ``t_recv_w``,
``wait_s``, ``service_s``, ``t_send_w`` and the output frame's ``nbytes``,
and the coordinator turns them into exactly one ``span.phases`` per hop,
mapped through its per-worker clock fit.  Checked on a two-worker journal,
per item and micro-batched: one ``span.phases`` beside each hop's
``stage.service`` and nothing else derived, its terms tiling the hop from the
previous hand-off and agreeing with ``stage.service``.

Stage functions live at module level so forked workers can resolve them.
"""

import time
from collections import Counter

import pytest

from repro.backend import DistributedBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.obs import read_journal

PHASES = ("wire_out", "worker_queue", "service", "encode", "wire_back")
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


def test_every_hop_is_one_span_phases_record(journal):
    assert not [r for r in journal if r["kind"].startswith("wk.")]
    per_hop = Counter(
        (r["kind"], r["stage"], r["seq"])
        for r in journal
        if r["kind"] in ("stage.service", "span.phases")
    )
    hops = {(stage, seq) for kind, stage, seq in per_hop if kind == "span.phases"}
    assert {stage for stage, _ in hops} == {0, 1}
    for stage, seq in hops:
        assert per_hop["span.phases", stage, seq] == 1
        assert per_hop["stage.service", stage, seq] == 1
    assert {(s, q) for _, s, q in per_hop} == hops  # no service record without its hop
    items = sum(r.get("items", 1) for r in journal if r["kind"] == "span.phases")
    assert items == 2 * N  # every item crossed both stages once
    assert all(r["nbytes"] > 0 for r in journal if r["kind"] == "span.phases")


def test_phases_tile_their_hop(journal):
    err = {}  # worker -> widest clock-fit error bound it reported
    for r in journal:
        if r["kind"] == "clock.sync":
            err[r["worker"]] = max(err.get(r["worker"], 0.0), r["err"])
    assert set(err) == {0, 1}
    by_hop: dict = {}
    for r in journal:
        if r["kind"] in ("item.dispatch", "span.phases", "stage.service"):
            by_hop.setdefault((r["stage"], r["seq"]), {})[r["kind"]] = r
    for (stage, seq), hop in by_hop.items():
        phases = hop["span.phases"]
        assert all(phases[p] >= 0.0 for p in PHASES), (stage, seq)
        # The hop starts at the previous hand-off (or the coordinator's send):
        # never before the item was dispatched.  Same host, one
        # CLOCK_MONOTONIC: a mapped time is off by at most the fit's rtt/2
        # bound (1 ms slack, as for the offset itself).
        start = phases["t"] - sum(phases[p] for p in PHASES)
        slack = err[phases["worker"]] + 1e-3
        assert hop["item.dispatch"]["t"] - slack <= start, (stage, seq)
        assert phases["service"] == hop["stage.service"]["seconds"]
        assert phases["worker"] == hop["stage.service"]["worker"]
