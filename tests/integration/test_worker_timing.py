"""One record per hop: the coordinator decomposes each hop from a result's stamps.

A worker traces nothing: each hop in a result's trail carries ``t_recv_w``,
``wait_s``, ``service_s``, ``t_send_w`` and the output frame's ``nbytes``,
and the coordinator turns them into the phases of the hop's one
``stage.service``, mapped through its per-worker clock fit.  Checked on a
two-worker journal, per item and micro-batched: one ``stage.service`` per
hop and nothing else derived, an item's hops chained in time from its
submit.

Stage functions live at module level so forked workers can resolve them.
"""

import time
from collections import Counter

import pytest

from repro.backend import DistributedBackend
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.obs import read_journal

PHASES = ("wire_out", "worker_queue", "seconds", "encode", "wire_back")
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


def test_every_hop_is_one_stage_service_record(journal):
    assert not [r for r in journal if r["kind"].startswith("wk.")]
    assert not [r for r in journal if r["kind"] in ("span.phases", "item.dispatch")]
    hops = [r for r in journal if r["kind"] == "stage.service"]
    per_hop = Counter((r["stage"], r["seq"]) for r in hops)
    assert {stage for stage, _ in per_hop} == {0, 1}
    assert set(per_hop.values()) == {1}
    assert sum(r.get("items", 1) for r in hops) == 2 * N  # every item crossed both stages once
    assert all(r["nbytes"] > 0 for r in hops)


def test_phases_chain_an_items_hops(journal):
    err = {}  # worker -> widest clock-fit error bound it reported
    for r in journal:
        if r["kind"] == "clock.sync":
            err[r["worker"]] = max(err.get(r["worker"], 0.0), r["err"])
    assert set(err) == {0, 1}
    submitted = {r["gseq"]: r["t"] for r in journal if r["kind"] == "item.submit"}
    hops = {(r["stage"], r["seq"]): r for r in journal if r["kind"] == "stage.service"}
    for (stage, seq), hop in hops.items():
        assert all(hop[p] >= 0.0 for p in PHASES), (stage, seq)
        # The record ends with the service: the hop started wire_out +
        # worker_queue + seconds before it, at the previous hop's service end
        # or later (the item's submit, for the first).  Same host, one
        # CLOCK_MONOTONIC: a mapped time is off by at most the fit's rtt/2
        # bound (1 ms slack, as for the offset itself).
        start = hop["t"] - hop["seconds"] - hop["worker_queue"] - hop["wire_out"]
        before = submitted[seq] if stage == 0 else hops[stage - 1, seq]["t"]
        assert before - err[hop["worker"]] - 1e-3 <= start, (stage, seq)
        if stage:
            # Both stages are one route: a peer hop starts at its
            # predecessor's hand-off, or at its own mapped arrival when the
            # clock fit puts that earlier (wire_out clamped at 0), never later.
            assert start <= before + hops[stage - 1, seq]["encode"] + 1e-6, (stage, seq)


def test_each_workers_clock_fit_fills_right_after_warm_up():
    # A short session maps every hop through its worker's clock fit, and one
    # pong's rtt/2 bound can be wider than a loopback wire leg: the
    # coordinator answers each pong with a ping until the fit holds four
    # samples.  The monitor's own pings are 5 s apart here, so they add none.
    pipe = PipelineSpec((StageSpec(name="inc", work=0.001, fn=_inc),))
    with DistributedBackend(pipe, spawn_workers=2, heartbeat_interval=5.0) as b:
        b.warm()
        deadline = time.monotonic() + 1.0
        while min(w.clock.n_samples for w in b._workers.values()) < 4:
            assert time.monotonic() < deadline, [w.clock.n_samples for w in b._workers.values()]
            time.sleep(0.01)
        assert len(b._workers) == 2
