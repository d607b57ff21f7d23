"""Tests of the benchmark itself (``python -m pytest perfbench -q``).

Not part of the tier-1 suite (``testpaths`` is ``tests``): the last test
runs all eight workloads in child interpreters.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import harness as h  # noqa: E402
from perfbench import suite  # noqa: E402
from perfbench.stats import count_failures, percentile, spread, verdict  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeSession:
    """The slice of ``Session`` the harness drives, without an executor.

    ``emit(item)`` lists the outputs an item produces (none: dropped, two:
    duplicated); ``stall`` maps an item to seconds its ``submit`` blocks;
    ``backlogs`` scripts the successive readings of ``backlog`` (then 0).
    """

    def __init__(self, emit=lambda item: [item], stall=None, backlogs=()) -> None:
        self.emit = emit
        self.stall = stall or {}
        self.closed = False
        self._backlogs = iter(backlogs)
        self._cv = threading.Condition()
        self._out: deque = deque()
        self._epoch = 0

    @property
    def backlog(self) -> int:
        return next(self._backlogs, 0)

    def submit(self, item) -> None:
        time.sleep(self.stall.get(item, 0.0))
        with self._cv:
            self._out.extend(self.emit(item))
            self._cv.notify_all()

    def results(self):
        epoch = self._epoch
        while True:
            with self._cv:
                while not self._out:
                    if self.closed or self._epoch != epoch:
                        return
                    self._cv.wait(0.05)
                value = self._out.popleft()
            yield value

    def drain(self) -> list:
        with self._cv:
            leftovers = list(self._out)
            self._out.clear()
            self._epoch += 1
            self._cv.notify_all()
        return leftovers

    def close(self) -> None:
        with self._cv:
            self.closed = True
            self._cv.notify_all()


@pytest.fixture
def fake():
    made = []

    def make(**kwargs):
        session = FakeSession(**kwargs)
        consumer = h.Consumer(session, lambda value: value)
        made.append((session, consumer))
        return session, consumer

    yield make
    for session, consumer in made:
        session.close()
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_spread_is_iqr_over_median():
    assert spread([10.0]) == 0.0
    assert spread([10.0] * 8) == 0.0
    values = [90, 95, 100, 100, 100, 100, 105, 110]
    assert 0.05 < spread(values) < 0.15


def test_failures_are_classified():
    want = list(range(10))
    assert sum(count_failures(want, want).values()) == 0
    assert count_failures(want[:3] + want[4:], want)["missing"] == 1
    assert count_failures(want[:4] + [3] + want[4:], want)["unexpected"] == 1
    assert count_failures([0, 2, 1] + want[3:], want)["misordered"] == 2
    wrong = count_failures(want[:5] + [500] + want[6:], want)
    assert (wrong["missing"], wrong["unexpected"]) == (1, 1)


def test_tally_counts_what_a_broken_session_does(fake, monkeypatch):
    monkeypatch.setattr(h, "_SETTLE_S", 0.2)  # a dropped output never arrives
    faults = {3: [], 5: [5, 5], 7: [700], 8: [9], 9: [8]}
    session, consumer = fake(emit=lambda item: faults.get(item, [item]))
    tally = h.Tally()
    items = list(range(20))
    h.closed_stream(session, consumer, items, items, tally, "saturation")
    assert tally.attempted == 20
    # dropped 3, duplicated 5, wrong-valued 7 (one missing, one unexpected),
    # swapped 8 and 9
    assert tally.failed == 1 + 1 + 2 + 2
    assert "saturation" in tally.notes[0]

    clean = h.Tally()
    session, consumer = fake()
    h.closed_stream(session, consumer, items, items, clean, "saturation")
    assert (clean.attempted, clean.failed) == (20, 0)


def test_open_loop_charges_a_stall_to_the_items_behind_it(fake):
    session, consumer = fake(stall={100: 0.1})
    items = list(range(400))
    tally = h.Tally()
    run = h.paced_segment(session, consumer, items, items, 1000, tally, "paced")
    assert tally.failed == 0
    latency = h.latencies(run)
    lag = [called - due for (called, _), due in zip(run.submits, run.due)]
    mid = lambda values: percentile(values, 50)  # noqa: E731 - host stalls hit single items
    # item 100 blocks submit for 100 ms; the items due meanwhile are submitted
    # late, and their latency still runs from their due time
    assert latency[100] >= 0.095
    assert mid(latency[110:130]) >= 0.06 and mid(lag[110:130]) >= 0.06
    assert mid(latency[170:190]) < mid(latency[110:130])
    assert mid(latency[300:]) < 0.03
    assert h.lag_p99_ms([run]) >= 50.0


def test_a_growing_backlog_is_flagged(fake):
    items = list(range(100))
    session, consumer = fake()
    assert not h.paced_segment(session, consumer, items, items, 1000, h.Tally(), "p").backlog_growing
    session, consumer = fake(backlogs=[5, 400])  # read mid-segment and at its end
    assert h.paced_segment(session, consumer, items, items, 1000, h.Tally(), "p").backlog_growing


def test_paced_due_times_sit_on_the_tick(fake):
    session, consumer = fake()
    run = h.paced_segment(session, consumer, list(range(60)), list(range(60)), 300, h.Tally(), "p")
    t0 = run.due[0]
    offsets_ms = [(d - t0) * 1e3 for d in run.due]
    assert all(abs(x - round(x)) < 1e-6 for x in offsets_ms)
    assert 195.0 <= offsets_ms[-1] <= 198.0  # 59 items at 300/s


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5]
    assert verdict(base, [104.0, 105.0, 103.0, 104.0], "lower", 0.10)[0] == "ok"
    assert verdict(base, [125.0, 126.0, 124.0, 125.0], "lower", 0.10)[0] == "regressed"
    assert verdict(base, [75.0, 76.0, 74.0, 75.0], "higher", 0.10)[0] == "regressed"
    assert verdict(base, [125.0, 126.0, 124.0, 125.0], "higher", 0.10)[0] == "ok"
    noisy = [80.0, 100.0, 120.0, 140.0]
    assert verdict(base, noisy, "lower", 0.10)[0] == "unresolved"
    # wider than the bound, but every new run beats every base run
    assert verdict(base, [50.0, 60.0, 70.0, 80.0], "lower", 0.10)[0] == "ok"


def _point(path: Path, scale: float = 1.0, failed: int = 0) -> Path:
    rows = {}
    for wl in CONTRACT["workloads"]:
        e2e = {}
        for spec in CONTRACT["end_to_end"]:
            worse = scale if spec["better"] == "lower" else 1.0 / scale
            e2e[spec["name"]] = {"unit": spec["unit"], "values": [10.0 * worse, 10.1 * worse]}
        rows[wl["name"]] = {"attempted": [1000], "failed": [failed], "end_to_end": e2e}
    path.write_text(json.dumps({"workloads": rows}))
    return path


def test_compare_exit_codes(tmp_path, capsys):
    base = _point(tmp_path / "a.json")
    assert suite.compare(base, _point(tmp_path / "same.json")) == 0
    assert "regressed" not in capsys.readouterr().out
    assert suite.compare(base, _point(tmp_path / "slow.json", scale=1.5)) == 1
    assert "regressed" in capsys.readouterr().out
    assert suite.compare(base, _point(tmp_path / "fails.json", failed=3)) == 1
    assert "failed_share rose" in capsys.readouterr().out


def test_trajectory_is_append_only(tmp_path, capsys):
    existing = tmp_path / "BENCH_0.json"
    existing.write_text("{}")
    assert suite.run(1, 1.0, 1, False, existing) == 2
    assert existing.read_text() == "{}"


def test_contract_names_the_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in CONTRACT["workloads"])
    assert {m["name"] for m in CONTRACT["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_metric(trace):
    """A short pass of all eight workloads, as the driver would invoke them."""
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    started = time.perf_counter()
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want, name
    assert time.perf_counter() - started < 90.0
