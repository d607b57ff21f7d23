#!/usr/bin/env python
"""Real distribution: a pipeline sharded over socket-connected workers.

Three worker processes are auto-spawned on localhost (in a real deployment
each runs on its own host via ``python -m repro.backend.distributed.worker
--connect host:port``), register with the coordinator advertising cores and
load, and host stage replicas.  One worker gets an injected link delay —
the grid's slow site.  The run shows:

1. ordered end-to-end results over TCP workers (the Pipeline1for1 contract),
2. measured per-stage service *and* per-link transfer times,
3. live adaptation: the runner replicates the bottleneck stage across
   workers, steering placement away from the slow link,
4. fault tolerance: a worker is killed mid-run; its in-flight items are
   re-dispatched and the result is still complete and ordered.

Run:  python examples/distributed_pipeline.py
"""

import threading
import time

from repro import open_pipeline
from repro.backend import DistributedBackend, local_config
from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.util.tables import render_table


def prepare(x: int) -> int:
    return x + 1


def heavy(x: int) -> int:
    time.sleep(0.02)  # the bottleneck stage (think: the expensive kernel)
    return x * 2


def finish(x: int) -> int:
    return x - 3


PIPELINE = PipelineSpec(
    (
        StageSpec(name="prepare", work=0.001, fn=prepare),
        StageSpec(name="heavy", work=0.02, fn=heavy),
        StageSpec(name="finish", work=0.001, fn=finish),
    ),
    name="demo",
)


def main() -> None:
    n_items = 150
    print(f"pipeline: {PIPELINE}")
    print("spawning 3 localhost workers (worker 2 behind a 5 ms slow link)\n")
    backend = DistributedBackend(
        PIPELINE,
        spawn_workers=3,
        max_replicas=3,
        worker_link_delays=[0.0, 0.0, 0.005],
    )
    try:
        backend.warm()
        print(
            render_table(
                ["worker", "cores", "load", "eff speed"],
                [
                    [w["name"], w["cores"], f"{w['load']:.2f}", f"{w['speed']:.2f}"]
                    for w in backend.alive_workers()
                ],
                title="registered workers (load-derived speeds)",
            )
        )

        print("\nadaptive run over socket workers:")
        session = open_pipeline(
            PIPELINE.stages,
            backend=backend,
            adaptive=local_config(
                interval=0.1, cooldown=0.2, min_improvement=1.05, rollback_tolerance=0.0
            ),
        )
        acts = []
        session.events.subscribe(acts.append, kinds=("adapt.act",))
        result = backend.run(range(n_items))
        assert result.outputs == [(x + 1) * 2 - 3 for x in range(n_items)]
        print(f"  items: {result.items}  elapsed: {result.elapsed:.2f}s  (ordered: yes)")
        for act in acts:
            print(f"  event: {act.fields['action']} @ {act.time:.2f}s  {act.fields['reason']}")
        print(f"  final replicas per stage: {result.replica_counts}")
        placement = backend.replica_placement()
        print(f"  placement (stage -> worker id -> replicas): {placement}")
        links = {w["name"]: f"{w['link_s'] * 1e3:.2f} ms" for w in backend.alive_workers()}
        print(f"  measured one-way link estimates: {links}")

        print("\nkilling one worker mid-run (fault-tolerance demo):")
        # run() streams on this thread, so the fault comes from a timer.
        killer = threading.Timer(0.4, backend.worker_processes[0].kill)
        killer.start()
        res = backend.run(range(n_items))
        killer.join()
        assert res.outputs == [(x + 1) * 2 - 3 for x in range(n_items)]
        print(f"  survived: {res.items}/{n_items} items, still ordered")
        print(f"  live workers after the loss: {len(backend.alive_workers())}")
    finally:
        backend.close()
    print("\ndistributed backend: same Backend port, real links, real failures.")


if __name__ == "__main__":
    main()
