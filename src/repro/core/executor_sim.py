"""Simulated execution of a pipeline on a grid, with live reconfiguration.

Execution model (the analytic model in :mod:`repro.model.throughput` mirrors
it exactly — see E9):

* The **source** emits ``n_items`` sequence-numbered items into stage 0's
  input channel (closed-loop by default: as fast as back-pressure allows).
* Each **stage replica** is a simulated process pinned to a processor.  Its
  per-item cycle: receive transfer (latency + bytes/bandwidth from the
  producer's processor), then service (exclusive CPU hold of
  ``work / effective_speed``; co-located actors contend for the capacity-1
  CPU resource, which realises equitable sharing), then a put downstream.
* After every stage sits a **reorderer** that restores sequence order, so
  replicated stages never reorder what downstream stages observe — the
  eSkel ``Pipeline1for1`` contract.
* The **sink** pays the final transfer to its own processor and records
  completion.

Reconfiguration protocol (the *act* step) — designed so that **no item is
ever lost or duplicated**, even mid-flight:

1. New replicas are spawned first.  Each sleeps for the migration cost
   (state transfer + restart) before consuming, modelling drain-move-resume
   migration.
2. The stage runtime's **epoch counter** advances; every replica checks it
   between items and retires the moment it is superseded, leaving the
   channel backlog to the new generation (critical when the old processor
   is degraded — it must not drain the backlog at its degraded speed).
3. Replicas *blocked* on an empty channel cannot observe the epoch, so one
   :class:`_StopToken` wake-up marker per retiring replica is inserted at
   the **front** of the channel (``put_front``); any replica that dequeues
   a token discards it and re-checks its epoch.
4. Replicas are never interrupted while holding an item; an item caught
   mid-service on a degraded node finishes there (bounded by one degraded
   service time), which the adaptation controller's settle window accounts
   for.

End-of-run shutdown cascades: the source closes stage 0's channel; when the
last replica of a stage exits (channel closed and drained), it closes the
stage's raw output; the reorderer drains and closes the next stage's input;
the sink completes a run event once its channel closes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import PipelineSpec
from repro.gridsim.channels import Channel, ChannelClosed
from repro.gridsim.engine import Simulator
from repro.gridsim.grid import GridSystem
from repro.model.mapping import Mapping
from repro.monitor.instrument import PipelineInstrumentation
from repro.obs.events import NULL_BUS, EventBus
from repro.util.rng import derive_rng
from repro.util.validation import check_positive

__all__ = ["SimPipelineEngine", "Item"]


@dataclass
class Item:
    """One unit of data flowing through the simulated pipeline."""

    seq: int
    nbytes: float
    produced_by: int  # pid of the processor that produced this version
    created: float  # simulated time the source emitted it


class _StopToken:
    """In-band wake-up marker for retiring replicas.

    The *authoritative* stop signal is the stage runtime's epoch counter,
    which every replica checks between items.  Tokens exist only to wake
    replicas that are *blocked* on an empty input channel so they re-check
    the epoch; any replica (old or new) that dequeues one simply discards it
    and loops.  They are inserted with ``put_front`` so a retiring replica
    never drains backlogged data at a degraded processor's speed first.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "_StopToken()"


class _StageRuntime:
    """Mutable bookkeeping for one stage during a run."""

    def __init__(self, index: int, in_ch: Channel, raw_out: Channel) -> None:
        self.index = index
        self.in_ch = in_ch
        self.raw_out = raw_out
        self.epoch = 0
        self.live_replicas = 0  # all replica processes not yet exited
        self.replica_pids: tuple[int, ...] = ()

    def on_replica_exit(self) -> None:
        self.live_replicas -= 1
        if self.live_replicas == 0 and self.in_ch.closed and not self.raw_out.closed:
            self.raw_out.close()


class SimPipelineEngine:
    """Runs one pipeline on one grid inside one simulator.

    The engine is deliberately mapping-mutable: :meth:`reconfigure` can be
    called at any simulated time by an adaptation controller.  Construction
    wires channels and spawns source/sink/reorderers; replicas for the
    initial mapping deploy immediately.
    """

    def __init__(
        self,
        sim: Simulator,
        grid: GridSystem,
        pipeline: PipelineSpec,
        mapping: Mapping,
        *,
        n_items: int,
        source_pid: int | None = None,
        sink_pid: int | None = None,
        buffer_capacity: int = 4,
        seed: int = 0,
        link_contention: bool = False,
        events: EventBus = NULL_BUS,
    ) -> None:
        check_positive(n_items, "n_items")
        check_positive(buffer_capacity, "buffer_capacity")
        if mapping.n_stages != pipeline.n_stages:
            raise ValueError(
                f"mapping covers {mapping.n_stages} stages, pipeline has {pipeline.n_stages}"
            )
        for pid in mapping.processors_used():
            if pid not in grid:
                raise KeyError(f"mapping uses unknown processor {pid}")
        self.sim = sim
        self.grid = grid
        self.pipeline = pipeline
        self.n_items = int(n_items)
        self.source_pid = grid.pids[0] if source_pid is None else source_pid
        self.sink_pid = grid.pids[0] if sink_pid is None else sink_pid
        self.buffer_capacity = int(buffer_capacity)
        # With link contention on, concurrent transfers over one physical
        # link serialise on the grid's per-link resource (shared WAN pipes
        # saturate); off (default) links have infinite parallelism, matching
        # the analytic model's assumption.
        self.link_contention = bool(link_contention)
        self.events = events  # emits stamped at=sim.now, simulated seconds
        self.instrumentation = PipelineInstrumentation(pipeline.n_stages)
        self.done = sim.event("pipeline-done")
        self.mapping = mapping
        self.mapping_history: list[tuple[float, Mapping]] = [(sim.now, mapping)]
        self.output_records: list[tuple[int, float, float]] = []  # (seq, t, latency)

        self._work_rngs = [
            derive_rng(seed, "work", str(i)) for i in range(pipeline.n_stages)
        ]
        n = pipeline.n_stages
        self._in_ch = [
            Channel(capacity=self.buffer_capacity, name=f"in[{i}]") for i in range(n)
        ]
        self._raw_out = [
            Channel(capacity=self.buffer_capacity, name=f"raw[{i}]") for i in range(n)
        ]
        self._sink_ch = Channel(capacity=self.buffer_capacity, name="sink")
        self._stages = [
            _StageRuntime(i, self._in_ch[i], self._raw_out[i]) for i in range(n)
        ]

        sim.process(self._source(), name="source")
        for i in range(n):
            nxt = self._in_ch[i + 1] if i + 1 < n else self._sink_ch
            sim.process(self._reorderer(i, nxt), name=f"reorder[{i}]")
        sim.process(self._sink(), name="sink")
        for i in range(n):
            self._deploy_stage(i, mapping.replicas(i), startup_delay=0.0)

    # ------------------------------------------------------------------ source
    def _source(self):
        for seq in range(self.n_items):
            item = Item(
                seq=seq,
                nbytes=self.pipeline.input_bytes,
                produced_by=self.source_pid,
                created=self.sim.now,
            )
            yield self._in_ch[0].put(item)
            self.events.emit("item.submit", f"emitted {seq}", at=self.sim.now, seq=seq)
        self._in_ch[0].close()

    # ------------------------------------------------------------------ replicas
    def _deploy_stage(
        self, stage: int, pids: tuple[int, ...], startup_delay: float
    ) -> None:
        rt = self._stages[stage]
        rt.epoch += 1
        rt.replica_pids = tuple(pids)
        for pid in pids:
            rt.live_replicas += 1
            self.sim.process(
                self._replica(stage, pid, rt.epoch, startup_delay),
                name=f"stage{stage}@{pid}#e{rt.epoch}",
            )

    def _replica(self, stage: int, pid: int, epoch: int, startup_delay: float):
        rt = self._stages[stage]
        spec = self.pipeline.stage(stage)
        proc = self.grid.processor(pid)
        metrics = self.instrumentation.stages[stage]
        out_ch = rt.raw_out
        try:
            if startup_delay > 0.0:
                yield self.sim.timeout(startup_delay)
            while True:
                if rt.epoch != epoch:
                    # Superseded by a reconfiguration: stop at this item
                    # boundary; the backlog belongs to the new generation.
                    self.events.emit(
                        "replica.remove",
                        f"stage{stage}@{pid} retired",
                        at=self.sim.now,
                        stage=stage,
                        pid=pid,
                    )
                    return
                try:
                    got = yield rt.in_ch.get()
                except ChannelClosed:
                    return
                if isinstance(got, _StopToken):
                    continue  # pure wake-up: discard and re-check the epoch
                item: Item = got
                # Receive transfer, charged at the consumer (network, no CPU).
                yield from self._transfer(item, pid)
                # Service: exclusive CPU hold; effective speed frozen at start.
                yield proc.resource.acquire()
                eff = proc.effective_speed(self.sim.now)
                work = spec.work.sample(self._work_rngs[stage])
                duration = work / eff
                try:
                    yield self.sim.timeout(duration)
                finally:
                    proc.resource.release()
                metrics.record_service(duration, eff)
                item.nbytes = spec.out_bytes
                item.produced_by = pid
                yield out_ch.put(item)
        finally:
            rt.on_replica_exit()

    # ------------------------------------------------------------------ reorder
    def _reorderer(self, stage: int, next_ch: Channel):
        rt = self._stages[stage]
        pending: dict[int, Item] = {}
        next_seq = 0
        try:
            while True:
                if next_seq in pending:
                    item = pending.pop(next_seq)
                    yield next_ch.put(item)
                    next_seq += 1
                    continue
                try:
                    item = yield rt.raw_out.get()
                except ChannelClosed:
                    break
                pending[item.seq] = item
            # Channel closed: every item has passed, flush any tail (should
            # be in order by construction).
            while next_seq in pending:
                item = pending.pop(next_seq)
                yield next_ch.put(item)
                next_seq += 1
            if pending:  # pragma: no cover - invariant violation guard
                raise RuntimeError(
                    f"reorderer[{stage}] stranded seqs {sorted(pending)}"
                )
        finally:
            next_ch.close()

    # ------------------------------------------------------------------ transfers
    def _transfer(self, item: Item, dst_pid: int):
        """Pay the network cost of moving ``item`` to ``dst_pid``.

        A generator helper (``yield from``-able inside process bodies):
        computes the transfer time from the link and waits it out, optionally
        serialising on the physical link's resource when contention
        modelling is on.
        """
        src = item.produced_by
        if src == dst_pid:
            return
        link = self.grid.link(src, dst_pid)
        if self.link_contention:
            res = self.grid.link_resource(src, dst_pid)
            yield res.acquire()
            try:
                xfer = link.transfer_time(item.nbytes, self.sim.now)
                if xfer > 0.0:
                    yield self.sim.timeout(xfer)
            finally:
                res.release()
            return
        xfer = link.transfer_time(item.nbytes, self.sim.now)
        if xfer > 0.0:
            yield self.sim.timeout(xfer)

    # ------------------------------------------------------------------ sink
    def _sink(self):
        while True:
            try:
                item = yield self._sink_ch.get()
            except ChannelClosed:
                break
            yield from self._transfer(item, self.sink_pid)
            now = self.sim.now
            self.instrumentation.record_completion(now)
            self.output_records.append((item.seq, now, now - item.created))
            self.events.emit("item.complete", f"completed {item.seq}", at=now, seq=item.seq)
        if not self.done.triggered:
            self.done.succeed(self.instrumentation.items_completed)

    # ------------------------------------------------------------------ control
    def reconfigure(self, new_mapping: Mapping, migration_seconds: float = 0.0) -> list[int]:
        """Apply ``new_mapping``; returns the stage indices that changed.

        ``migration_seconds`` is the total migration budget; it is charged as
        the startup delay of every newly deployed replica set (they all
        migrate concurrently, which is how the cost model prices it).
        """
        if new_mapping.n_stages != self.pipeline.n_stages:
            raise ValueError(
                f"mapping covers {new_mapping.n_stages} stages, "
                f"pipeline has {self.pipeline.n_stages}"
            )
        for pid in new_mapping.processors_used():
            if pid not in self.grid:
                raise KeyError(f"mapping uses unknown processor {pid}")
        changed = self.mapping.moved_stages(new_mapping)
        for stage in changed:
            rt = self._stages[stage]
            if rt.in_ch.closed:
                continue  # run already draining past this stage
            old_count = len(rt.replica_pids)
            self._deploy_stage(
                stage, new_mapping.replicas(stage), startup_delay=migration_seconds
            )
            self.sim.process(
                self._send_stop_token(rt, old_count),
                name=f"stop-token[{stage}]",
            )
        self.mapping = new_mapping
        self.mapping_history.append((self.sim.now, new_mapping))
        return changed

    def _send_stop_token(self, rt: _StageRuntime, count: int):
        if count <= 0:
            return
            yield  # pragma: no cover
        try:
            # One wake-up per retiring replica.  Priority insertion: blocked
            # retirees must wake *before* any backlogged items, otherwise a
            # replica stranded on a degraded processor would drain the
            # backlog at its degraded speed first — exactly what the
            # re-mapping is trying to escape.
            for _ in range(count):
                yield rt.in_ch.put_front(_StopToken())
        except ChannelClosed:
            pass  # replicas are already terminating via channel close

    # ------------------------------------------------------------------ results
    @property
    def items_completed(self) -> int:
        return self.instrumentation.items_completed

    def output_seqs(self) -> list[int]:
        return [seq for seq, _, _ in self.output_records]

    def completion_times(self) -> list[float]:
        return [t for _, t, _ in self.output_records]

    def latencies(self) -> list[float]:
        return [lat for _, _, lat in self.output_records]
