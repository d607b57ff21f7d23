"""Every executor's lane records name items by one key: the ``gseq``.

``item.submit`` carries an item's ticket ``(stream, seq)`` and its
session-wide ``gseq``; every record the executors emit below the port
(``stage.service``, ``frame.*``, ``worker.redispatch``) names items by
that ``gseq`` — a batch-covering one by its first member's, plus
``items``.  Checked on threads, asyncio, processes and
distributed, per item and micro-batched, over two streams: the second
stream is where a per-stream number would collide with the first's.  Each
record is emitted before its items are delivered, so the items it names
belong to the stream open when it was emitted.

Stage functions live at module level: distributed workers resolve them by
reference.
"""

import pytest

from repro.obs.journal import read_journal, to_event
from repro.obs.profile import ProfileReport, join_records
from repro.skel.api import open_pipeline

EXECUTORS = {
    "threads": {},
    "asyncio": {},
    "processes": {"max_replicas": 1},
    "distributed": {"spawn_workers": 1},
}
N = 50  # items per stream
LANE_KINDS = {"stage.service", "frame.encode", "frame.release", "worker.redispatch",
              "batch.assemble"}


def _inc(x):
    return x + 1


def _double(x):
    return 2 * x


@pytest.mark.parametrize("batching", [None, 16], ids=["items", "batched"])
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_every_lane_record_names_its_items_by_gseq(executor, batching, tmp_path):
    path = tmp_path / "j.jsonl"  # a journal: every kind, the hop phases included
    session = open_pipeline(
        [_inc, _double],
        backend=executor,
        telemetry=path,
        batching=batching,
        **EXECUTORS[executor],
    )
    events = []
    with session:
        session.events.subscribe(events.append)
        for stream in range(2):
            for x in range(N):
                session.submit(100 * stream + x)
            assert session.drain() == [2 * (100 * stream + x + 1) for x in range(N)]

    owner = {}  # gseq -> ticket (stream, seq)
    stream, records = None, []
    for ev in events:
        f = ev.fields
        if ev.kind == "stream.begin":
            stream = f["stream"]
        elif ev.kind == "item.submit":
            owner[f["gseq"]] = (f["stream"], f["seq"])
        elif ev.kind in LANE_KINDS:
            named = [owner.get(g) for g in range(f["seq"], f["seq"] + f.get("items", 1))]
            assert all(t is not None and t[0] == stream for t in named), (
                f"stream {stream}: {ev.kind} {f} names {named}"
            )
            records.append((ev, set(named)))
            if ev.kind == "batch.assemble":  # base: its first item's seq in the stream
                assert f["base"] == named[0][1], f
    assert len(owner) == 2 * N
    kinds = {ev.kind for ev, _ in records}
    assert {"stage.service"} <= kinds
    if executor in ("processes", "distributed"):
        assert {"frame.encode", "frame.release"} <= kinds
    # A hop is one record on every executor: the distributed one carries
    # its decomposition and output size in it.
    assert not {ev.kind for ev in events} & {"item.dispatch", "span.phases"}
    if executor == "distributed":
        for ev, _ in records:
            if ev.kind == "stage.service":
                assert ev.fields.keys() >= {
                    "wire_out", "worker_queue", "encode", "wire_back", "nbytes"
                }, ev.fields

    # Each stage serviced every item exactly once, by the item's own key.
    for stage in range(2):
        covered = sorted(
            g
            for ev, _ in records
            if ev.kind == "stage.service" and ev.fields["stage"] == stage
            for g in range(ev.fields["seq"], ev.fields["seq"] + ev.fields.get("items", 1))
        )
        assert covered == sorted(owner), f"stage {stage}"

    # The profiler's join puts each journal record on exactly the items it
    # names.
    def key(ev):
        return ev.kind, ev.fields.get("stage"), ev.fields["seq"]

    attached = {}
    joined = join_records((to_event(r) for r in read_journal(path)), ProfileReport())
    for ticket, joined_records in joined.items():
        for ev in joined_records:
            if ev.kind in LANE_KINDS:
                attached.setdefault(key(ev), set()).add(ticket)
    named_by = {}
    for ev, named in records:
        named_by.setdefault(key(ev), set()).update(named)
    assert attached == named_by


@pytest.mark.parametrize("heard", [False, True], ids=["unheard", "heard"])
def test_a_distributed_hop_is_decomposed_only_when_heard(heard, monkeypatch):
    # The untraced router does no per-hop phase work: with nobody listening
    # for stage.service every hop it records carries no phases; with a
    # listener, each carries the four terms, none negative.
    from repro.monitor.instrument import StageMetrics

    recorded = []
    record_hops = StageMetrics.record_hops

    def spy(self, hops):
        recorded.extend(hops)
        return record_hops(self, hops)

    monkeypatch.setattr(StageMetrics, "record_hops", spy)
    session = open_pipeline([_inc, _double], backend="distributed", spawn_workers=1)
    with session:
        if heard:
            session.events.subscribe(lambda ev: None, kinds=["stage.service"])
        for x in range(N):
            session.submit(x)
        assert session.drain() == [2 * (x + 1) for x in range(N)]
    assert len(recorded) == 2 * N
    for hop in recorded:
        phases = hop[-1]
        if heard:
            assert phases.keys() == {"wire_out", "worker_queue", "encode", "wire_back"}
            assert min(phases.values()) >= 0.0, hop
        else:
            assert phases is None, hop


def test_an_item_is_announced_before_a_linger_cut_names_it():
    # A listener slower than the linger deadline holds each item.submit
    # emit open while the flusher's deadline passes: the batch.assemble of
    # that cut must still come after the item.submit of every item it names.
    import time

    from repro.util.batching import LINGER_S

    seen = []
    session = open_pipeline([_inc], backend="threads", batching=16)
    with session:
        session.events.subscribe(lambda ev: time.sleep(3 * LINGER_S), kinds=["item.submit"])
        session.events.subscribe(seen.append, kinds=["item.submit", "batch.assemble"])
        for x in range(8):
            session.submit(x)
        assert session.drain() == [x + 1 for x in range(8)]
    announced = set()
    for ev in seen:
        f = ev.fields
        if ev.kind == "item.submit":
            announced.add(f["gseq"])
        else:
            assert set(range(f["seq"], f["seq"] + f.get("items", 1))) <= announced, f
    assert len(announced) == 8
