"""Acceptance tests for the observability layer (ISSUE 8).

The load-bearing claim: a killed distributed worker during a streaming run
leaves a journal containing its death event, exactly-once re-dispatch
events for its lost in-flight items, and the adaptation decision that
re-homed its replicas — all reconstructable offline from the JSONL file.
Likewise for the live controller: every decision is journalled with what
woke it (ISSUE 17).

Stage functions live at module level so forked workers can resolve them.
"""

import threading
import time
from collections import Counter

from repro import open_pipeline
from repro.backend import DistributedBackend, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.obs import read_journal


def _slow_triple(x):
    time.sleep(0.01)
    return x * 3


def _pipe():
    return PipelineSpec((StageSpec(name="triple", work=0.01, fn=_slow_triple),))


class TestWorkerDeathJournal:
    def test_death_redispatch_and_rehome_journalled(self, tmp_path):
        path = tmp_path / "dist.jsonl"
        n = 60
        b = DistributedBackend(_pipe(), spawn_workers=2, replicas=[1])
        try:
            session = b.open(telemetry=path)
            # submit() feels the replica's capacity (8 in flight), so the
            # stream is fed from a producer thread and the kill lands while
            # that thread is parked on the full replica.
            producer = threading.Thread(
                target=lambda: [session.submit(i) for i in range(n)], daemon=True
            )
            producer.start()
            time.sleep(0.25)  # let items reach the hosting worker
            assert producer.is_alive() and session.backlog >= 8
            # Kill the worker hosting the only replica of the only stage.
            (hosting_wid,) = b.replica_placement()[0]
            victim = next(w for w in b._workers.values() if w.id == hosting_wid)
            assert victim.proc is not None
            victim.proc.kill()
            producer.join(timeout=30)
            assert not producer.is_alive()
            # The stream still completes, in order, with no lost items.
            assert session.drain() == [x * 3 for x in range(n)]
            session.close()
        finally:
            b.close()

        recs = list(read_journal(path))
        kinds = [r["kind"] for r in recs]

        # Both workers registered before any item moved.
        joins = [r for r in recs if r["kind"] == "worker.join"]
        assert {r["worker"] for r in joins} == {0, 1}
        assert kinds.index("worker.join") < kinds.index("item.submit")

        # The death was recorded, attributed to the killed worker.
        deaths = [r for r in recs if r["kind"] == "worker.death"]
        assert len(deaths) == 1
        assert deaths[0]["worker"] == hosting_wid
        assert deaths[0]["lost_items"] >= 1

        # Exactly-once re-dispatch: every lost item re-sent once, none twice.
        redispatches = Counter(
            (r["stage"], r["seq"])
            for r in recs
            if r["kind"] == "worker.redispatch"
        )
        assert len(redispatches) == deaths[0]["lost_items"]
        assert all(count == 1 for count in redispatches.values())

        # The decision that re-homed the stage, then the replacement replica
        # on the survivor — in that order, after the death.
        decides = [
            i for i, r in enumerate(recs)
            if r["kind"] == "adapt.decide" and "re-home" in r.get("reason", "")
        ]
        assert decides, "no re-home adaptation decision journalled"
        death_at = kinds.index("worker.death")
        rehome_adds = [
            i for i, r in enumerate(recs)
            if r["kind"] == "replica.add" and i > death_at
        ]
        assert rehome_adds and decides[0] > death_at
        assert recs[rehome_adds[0]]["worker"] != hosting_wid

        # The stream itself closed cleanly in the journal.
        assert kinds[-1] == "session.close" or "session.close" in kinds
        drains = [r for r in recs if r["kind"] == "stream.drain"]
        assert drains and drains[0]["items"] == n


def _stepping(x):
    time.sleep(0.008 if x >= 60 else 0.002)
    return x


class TestControllerWakesJournalled:
    def test_why_the_controller_woke_is_in_the_journal(self, tmp_path):
        # A stage slows from 2 to 8 ms at item 60.  With a 30 s interval the
        # journal must show a first look on evidence and a shift on stage 1
        # — each decision with what woke it and what it said.
        path = tmp_path / "live.jsonl"
        session = open_pipeline(
            [lambda x: x + 1, _stepping],
            adaptive=local_config(interval=30.0, cooldown=0.1),
            max_replicas=4,
            telemetry=path,
        )
        with session:
            for x in range(-1, 259):
                session.submit(x)
            assert session.drain() == list(range(260))

        recs = list(read_journal(path))
        decides = [r for r in recs if r["kind"] == "adapt.decide"]
        assert decides[0]["trigger"] == "evidence"
        for r in decides:
            assert r["trigger"] in {"evidence", "shift", "tick", "validate"}
            assert isinstance(r["acts"], bool) and r["reason"]
            if r["trigger"] == "shift":
                assert {"stage", "mean_before", "mean_after", "step"} <= r.keys()
            else:
                assert "stage" not in r
        slowed = [
            r for r in decides
            if r["trigger"] == "shift" and r["stage"] == 1
            and r["mean_after"] > 1.1 * r["mean_before"]
        ]
        assert slowed, "the 2 -> 8 ms step never woke the controller"
        # Every action follows the decision that asked for it.
        for i, r in enumerate(recs):
            if r["kind"] == "adapt.act":
                asked = [d for d in recs[:i] if d["kind"] == "adapt.decide"][-1]
                assert asked["acts"] and asked["reason"] == r["reason"]
