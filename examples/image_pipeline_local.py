#!/usr/bin/env python
"""Real execution: the image-processing pipeline on local threads.

The same :class:`PipelineSpec` used in grid simulations carries real numpy
callables, so it runs unchanged on the thread runtime.  numpy releases the
GIL, so replicating the heavy edge-detection stage gives genuine speedup on
a multicore host.  An adaptive streaming session then finds that
replication on its own, while items flow.

Run:  python examples/image_pipeline_local.py
"""

import time

from repro import ThreadBackend, local_config, open_pipeline
from repro.workloads.apps import image_pipeline, make_images
from repro.util.tables import render_table


def main() -> None:
    pipeline = image_pipeline()
    images = make_images(60, size=256)
    print(f"pipeline: {pipeline}")
    print(f"input: {len(images)} images of 256x256\n")

    rows = []
    for replicas in ([1, 1, 1, 1], [1, 2, 1, 1], [1, 3, 1, 1]):
        with ThreadBackend(pipeline, replicas=replicas).open() as session:
            t0 = time.perf_counter()
            for image in images:
                session.submit(image)
            out = session.drain()
            elapsed = time.perf_counter() - t0
            service_means = session.service_means()
        assert len(out) == len(images)
        rows.append(
            [
                str(replicas),
                f"{elapsed:.2f}",
                f"{len(images) / elapsed:.1f}",
                " ".join(f"{m:.3f}" for m in service_means),
            ]
        )
    print(
        render_table(
            ["replicas", "elapsed(s)", "imgs/s", "stage service means (s)"],
            rows,
            title="manual replication of the edge-detection stage (stage 1)",
        )
    )

    print("\nadaptive session (the control loop widens stages while items flow):")
    # Four back-to-back streams over one warm session; the controller
    # keeps observing across the stream boundaries.
    config = local_config(interval=0.05, cooldown=0.1, settle_time=0.05)
    with open_pipeline(
        pipeline.stages, backend="threads", adaptive=config, max_replicas=3
    ) as session:
        history = [session.backend.replica_counts()]
        for seed in range(4):
            batch = make_images(40, size=256, seed=seed)
            for image in batch:
                session.submit(image)
            assert len(session.drain()) == len(batch)
            history.append(session.backend.replica_counts())
    print(f"  replica history: {history}")
    print(f"  final replicas per stage: {history[-1]}")
    print("\nnote: results depend on core count; the *shape* (the numpy-heavy")
    print("stages gain workers, the trivial summariser never does) is the point,")
    print("not absolute speedups.")


if __name__ == "__main__":
    main()
