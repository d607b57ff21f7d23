"""Stage-level instrumentation: the *observe* step of the pattern.

Every executor reports each stage's per-item service times here, with the
payload sizes it measured.  The adaptation policy reads
:class:`StageSnapshot` objects — windowed views of recent behaviour — to
locate the bottleneck stage and to estimate each stage's *work* (service
time × effective speed), which is what makes re-mapping predictions
possible on heterogeneous processors.  Queue lengths, transfer times and
byte totals are not kept here: they live once, in the event stream
(``stage.service``'s ``queue``, ``nbytes`` and hop phases, ``frame.*``) and
in the distributed lane's link fit.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from contextlib import AbstractContextManager
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.util.stats import OnlineStats, SlidingWindow

__all__ = ["StageMetrics", "StageSnapshot", "PipelineInstrumentation", "ServiceWatch"]


@dataclass(frozen=True)
class StageSnapshot:
    """Windowed view of one stage's recent behaviour: what the policies read.

    ``service_time`` is the window mean (seconds/item); ``work_estimate``
    is the inferred work per item in normalised units (service time × the
    effective speed the item actually saw), which is mapping-independent
    and lets the model predict service times elsewhere.  ``bytes_out`` is
    the window-mean measured size of what the stage emits and ``bytes_in``
    that of what enters the pipeline (stage 0 only; stage k+1's input is
    stage k's output); both stay 0.0 until a backend records them.
    """

    stage_index: int
    items_processed: int
    service_time: float
    work_estimate: float
    bytes_in: float = 0.0
    bytes_out: float = 0.0


class StageMetrics:
    """Accumulates measurements for one stage (merging all replicas).

    ``events`` (an :class:`repro.obs.events.EventBus`) turns every
    ``record_service`` into a ``stage.service`` event as well — the single
    hook through which all executors feed both the adaptation policy's
    windows and the telemetry exporters.
    """

    def __init__(self, stage_index: int, window: int = 32, events=None) -> None:
        self.stage_index = stage_index
        self.events = events
        self.total = OnlineStats()
        self._service_win = SlidingWindow(window)
        self._work_win = SlidingWindow(window)
        self._bytes_in_win = SlidingWindow(window)
        self._bytes_out_win = SlidingWindow(window)
        #: This stage's end of an installed :class:`ServiceWatch` (None = unwatched).
        self._watch: _StageWatch | None = None

    def record_service(
        self,
        seconds: float,
        effective_speed: float,
        *,
        seq: int | None = None,
        worker: "int | str | None" = None,
        queue: float | None = None,
        items: int = 1,
        at: float | None = None,
        nbytes: int | None = None,
        phases: dict | None = None,
    ) -> None:
        """``items`` items serviced in ``seconds`` at the given speed.

        A micro-batched executor records one call per *batch*: the
        policy-facing windows are fed the per-item mean (``seconds /
        items``) so service-time estimates stay comparable with unbatched
        runs, while the emitted ``stage.service`` event carries the batch
        total plus an ``items`` count (and ``seq`` = the batch's first
        item) so span attribution can fan it back out per item without
        double-counting.

        ``seq``/``worker``/``queue`` and a hop's ``phases`` only annotate the
        emitted event (span attribution, ``top``); ``nbytes`` also feeds the
        bytes-out window.  ``at`` stamps the event with the bus-clock time the
        service ended, for records that reach the recorder late (default: now).
        """
        per_item = seconds / items if items > 1 else seconds
        if nbytes is not None:
            self._bytes_out_win.push(nbytes)
        for _ in range(items):
            self.total.push(per_item)
        watch = self._watch
        if watch is None:
            self._service_win.push(per_item)
            self._work_win.push(per_item * effective_speed)
        else:
            watch(per_item, per_item * effective_speed)
        bus = self.events
        if bus is not None and bus.wants("stage.service"):
            fields: dict = {"stage": self.stage_index, "seconds": seconds, "speed": effective_speed}
            if items > 1:
                fields["items"] = items
            if seq is not None:
                fields["seq"] = seq
            if worker is not None:
                fields["worker"] = worker
            if queue is not None:
                fields["queue"] = queue
            if nbytes is not None:
                fields["nbytes"] = nbytes
            if phases:
                fields.update(phases)
            bus.emit("stage.service", at=at, **fields)

    def record_hops(self, hops: Sequence[tuple]) -> None:
        """Exactly what, hop by hop, ``record_service`` records, in one call.
        A hop is ``(seq, items, stage, worker, service_s, nbytes_out, queued,
        at, speed, phases)``: a lane's hop (``Session._record_trails``) behind
        its item-space ``(seq, items)``.  A lone hop, or any hop of a watched
        or heard stage, goes through ``record_service``, for the watch and the
        bus to see each sample in turn; else one pass gathers each window's
        column for one ``extend``.
        """
        bus = self.events
        if len(hops) < 2 or self._watch is not None or (
            bus is not None and bus.wants("stage.service")
        ):
            for seq, k, _, worker, s, nbytes, queued, at, speed, phases in hops:
                self.record_service(
                    s, speed, seq=seq, worker=worker, queue=queued, items=k, at=at,
                    nbytes=nbytes, phases=phases,
                )
            return
        per, extra, work, sizes = [], [], [], []
        for _, k, _, _, s, nbytes, _, _, speed, _ in hops:
            if k > 1:  # a batch: its per-item mean counts once per item
                s /= k
                extra += [s] * (k - 1)
            per.append(s)
            work.append(s * speed)
            if nbytes is not None:
                sizes.append(nbytes)
        self.total.extend(per + extra)
        self._service_win.extend(per)
        self._work_win.extend(work)
        self._bytes_out_win.extend(sizes)

    def record_bytes_in(self, nbytes: float) -> None:
        """One item's measured payload size on entering the pipeline (stage 0)."""
        self._bytes_in_win.push(nbytes)

    def snapshot(self) -> StageSnapshot:
        bytes_in, bytes_out = self._bytes_in_win.mean, self._bytes_out_win.mean
        return StageSnapshot(
            stage_index=self.stage_index,
            items_processed=self.total.n,
            service_time=self._service_win.mean,
            work_estimate=self._work_win.mean,
            bytes_in=0.0 if math.isnan(bytes_in) else bytes_in,
            bytes_out=0.0 if math.isnan(bytes_out) else bytes_out,
        )


_SHUT = (math.inf, -math.inf)  # no mean is inside: the next sample recalibrates
_OPEN = (-math.inf, math.inf)  # every mean is inside: has its evidence, waits for the rest


class _StageWatch:
    """One stage's end of a :class:`ServiceWatch`, fed by ``record_service``.

    Runs under the lock that serialises that stage's ``record_service``
    calls (the session's stage lock, which :meth:`ServiceWatch.arm` takes too).
    """

    __slots__ = (
        "owner", "metrics", "win", "work", "total", "band", "centre", "limits", "noise", "ready"
    )

    def __init__(self, owner: "ServiceWatch", metrics: StageMetrics) -> None:
        self.owner = owner
        self.metrics = metrics
        self.win, self.work = metrics._service_win, metrics._work_win
        self.total = 0.0  # rolling sum of the service window (exact after _recalibrate)
        self.band = _SHUT
        self.centre: float | None = None  # windowed mean the last decision saw
        self.limits = _SHUT  # the band around it that matters to the plan
        self.noise = 0.0  # whole-run standard deviation as of that decision
        self.ready = False  # reached min_samples

    def __call__(self, per_item: float, work: float) -> None:
        """Push one sample onto the windows; the per-item cost of being watched."""
        win = self.win
        self.total = total = self.total + per_item - win.push_out(per_item)
        self.work.push(work)
        lo, hi = self.band
        if not lo <= total / len(win) <= hi:
            self._recalibrate(win)

    def _recalibrate(self, win: SlidingWindow) -> None:
        """Off the hot path: the first sample after (re)arming, or an excursion."""
        owner, metrics = self.owner, self.metrics
        centre = self.centre
        if centre is None:
            if metrics.total.n >= owner.min_samples:
                self.ready = True
                self.band = _OPEN
                if all(s.ready for s in owner.stages):
                    owner._fire(("evidence",))
            return
        if self.band is _SHUT and metrics.total.n > 1:
            self.noise = metrics.total.std
        lo, hi = self.limits
        values = win.values()
        # The newest samples are a *step* when they sit out of band on one
        # side, each at least half as far out as those after it, and their
        # mean is off the old level by more than six standard errors, going
        # by the noise among the samples before them and up to the decision.
        old, reach = len(values), 0.0  # reach: the tail's mean, from the centre
        while old:
            off = values[old - 1] - centre
            if lo <= values[old - 1] <= hi or off * reach < 0 or abs(off) < abs(reach) / 2:
                break
            reach += (off - reach) / (len(values) - old + 1)
            old -= 1
        tail = values[old:]
        before = OnlineStats()
        before.extend(values[:old])
        noise = max(self.noise, before.std if old > 1 else 0.0)
        stepped = (
            len(tail) >= owner.min_samples and abs(reach) * math.sqrt(len(tail)) > 6.0 * noise
        )
        if stepped:
            # What came before a level shift says nothing about the stage
            # now: the decision sees only the new level, not a mixture.
            win.keep_last(len(tail))
            self.work.keep_last(len(tail))
            values = tail
        self.total = math.fsum(values)
        mean = self.total / len(values)
        unsettled = 0 < len(tail) < owner.min_samples or not win.full
        if lo <= mean <= hi or (unsettled and not stepped):
            # In band, or too early to tell: an out-of-band sample or two may
            # be the start of a step (the next sample settles it), and the
            # mean of a window still filling is still converging.
            self.band = (lo, hi)
        else:
            # Said once: silent again until the mean has moved on as far.
            self.band = (mean / owner.ratio, mean * owner.ratio)
            owner._fire(("shift", metrics.stage_index, centre, mean, stepped))


class ServiceWatch:
    """Change detector on the ``stage.service`` stream: wakes a controller.

    Installed on every stage's :class:`StageMetrics` — the one hook all
    executors record through — it calls ``wake()`` from the recording
    thread when

    * every stage has first reached ``min_samples`` observations
      (``("evidence",)``), and afterwards
    * a stage's windowed service mean leaves the band around the mean last
      passed to :meth:`arm` (``("shift", stage, centre, mean, stepped)``):
      ``[centre / ratio, centre * ratio]``, opened further on the side
      where the move could not change a plan — a stage far below the
      pipeline's period may speed up, or slow down short of it, unheard.

    An excursion made by the newest samples alone — ``min_samples`` or more
    of them, their mean off the old level by over six standard errors — is
    a *step*: the window is cut back to those samples before the wake, so
    the decision sees the new level rather than a mixture with the old.
    A stage that fired says no more until its mean has moved on by the
    band's width again (or the next :meth:`arm`), so a sustained excursion
    costs one wake, and an in-band sample costs a rolling-sum update and
    one compare — never a lock or an event.
    """

    def __init__(
        self,
        stages: Sequence[StageMetrics],
        wake: Callable[[], None],
        *,
        locks: Sequence[AbstractContextManager],
        min_samples: int,
        ratio: float,
    ) -> None:
        self.min_samples = min_samples
        self.ratio = ratio
        self._wake = wake
        self._locks = locks  # locks[i] serialises stage i's samples and band
        self.fired: tuple | None = None
        self.stages = [_StageWatch(self, m) for m in stages]
        for s in self.stages:
            s.metrics._watch = s

    def _fire(self, what: tuple) -> None:
        self.fired = what
        self._wake()

    def take(self) -> tuple | None:
        """What fired since the last take (newest wins), or None.

        Follow a taken firing with :meth:`arm`, which puts the bands back
        around what the decision saw.
        """
        fired, self.fired = self.fired, None
        return fired

    def arm(
        self,
        centres: Sequence[float] | None = None,
        replicas: Sequence[int] | None = None,
    ) -> None:
        """Listen again — around new ``centres`` if given.

        ``centres`` are the per-stage windowed means a decision was just
        taken on and ``replicas`` the counts it leaves in place; they are
        adopted only once every stage has its evidence (until then the
        watch keeps waiting for that).  Each stage checks itself against
        its band on its next sample.
        """
        ratio, adopt = self.ratio, centres is not None and all(s.ready for s in self.stages)
        if adopt:
            replicas = replicas or [1] * len(centres)
            period = max(c / r for c, r in zip(centres, replicas))
        for k, s in enumerate(self.stages):
            with self._locks[k]:
                if adopt:
                    # The mean at which this stage would come within `ratio` of
                    # setting the period; under it, only crossing it matters.
                    near = period * replicas[k] / ratio
                    centre = s.centre = centres[k]
                    s.limits = (centre / ratio if centre >= near else 0.0, max(centre * ratio, near))
                s.band = _SHUT

    def close(self) -> None:
        for s in self.stages:
            s.metrics._watch = None


class PipelineInstrumentation:
    """Instrumentation for a whole pipeline plus completion accounting.

    Counters are **session-cumulative**: a long-lived streaming session
    keeps one instrumentation across every stream it serves, so windowed
    views (and the adaptation loop reading them) never reset at a stream
    boundary.
    """

    def __init__(self, n_stages: int, window: int = 32, events=None) -> None:
        if n_stages < 1:
            raise ValueError(f"n_stages must be >= 1, got {n_stages}")
        self.stages = [
            StageMetrics(i, window=window, events=events) for i in range(n_stages)
        ]
        # One record per delivered run: the running item count, and when the
        # run left the last stage.  A count is appended before its time, so a
        # reader that takes len(times) first never indexes past the counts.
        self._counts = array("q")
        self._times = array("d")

    def record_completion(self, t: float, items: int = 1) -> None:
        """``items`` items left the last stage at (simulated) time ``t``.

        A collector records one call per delivered run (or batch); every
        item in it counts toward throughput at the run's delivery time (they
        genuinely completed together).
        """
        counts = self._counts
        counts.append((counts[-1] if counts else 0) + items)
        self._times.append(t)

    @property
    def items_completed(self) -> int:
        counts = self._counts
        return counts[-1] if counts else 0

    def snapshots(self, locks: "Sequence[AbstractContextManager] | None" = None) -> list[StageSnapshot]:
        """Per-stage snapshots; ``locks[i]`` (if given) guards stage ``i``.

        The simulator reads single-threaded and passes nothing; the real
        executors pass their per-stage locks so snapshots are consistent
        with concurrent ``record_service`` calls.
        """
        if locks is None:
            return [s.snapshot() for s in self.stages]
        snaps = []
        for stage, lock in zip(self.stages, locks):
            with lock:
                snaps.append(stage.snapshot())
        return snaps

    def recent_throughput(self, now: float, horizon: float) -> float:
        """Completions per second over ``[now - horizon, now]``.

        NaN when the window saw no completions (distinguishes "no data" from
        genuinely zero throughput at the start of a run).  A bisection:
        completion times are appended in order (one egress thread, or the
        simulator's clock), so this costs O(log n), not a scan of the session.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        times, counts = self._times, self._counts
        n = len(times)  # every one of these records has its count already
        i = bisect_left(times, now - horizon, 0, n)
        if i == n:
            return math.nan
        return (counts[n - 1] - (counts[i - 1] if i else 0)) / horizon
