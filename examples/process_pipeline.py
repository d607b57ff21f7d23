#!/usr/bin/env python
"""Real execution: the image-processing pipeline on warm process pools.

The mirror of ``image_pipeline_local.py`` for the process backend: the same
:class:`PipelineSpec` runs on pre-forked worker processes (one warm pool
per stage), so even pure-Python CPU-bound stages escape the GIL.  An
adaptive session on that backend then drives the paper's
observe→decide→act loop against wall-clock measurements: it watches per-stage service times,
asks the model-driven :class:`AdaptationPolicy` where the bottleneck is,
and activates warm workers live while images flow through.

Run:  python examples/process_pipeline.py
"""

from repro import open_pipeline
from repro.backend import ProcessPoolBackend, local_config
from repro.util.tables import render_table
from repro.workloads.apps import image_pipeline, make_images


def main() -> None:
    pipeline = image_pipeline()
    images = make_images(60, size=256)
    print(f"pipeline: {pipeline}")
    print(f"input: {len(images)} images of 256x256 on the process backend\n")

    rows = []
    for replicas in ([1, 1, 1, 1], [1, 2, 1, 1]):
        with ProcessPoolBackend(pipeline, replicas=replicas, max_replicas=3) as b:
            res = b.run(images)
        assert res.outputs is not None and len(res.outputs) == len(images)
        rows.append(
            [
                str(replicas),
                f"{res.elapsed:.2f}",
                f"{res.throughput:.1f}",
                " ".join(f"{m:.3f}" for m in res.service_means),
            ]
        )
    print(
        render_table(
            ["replicas", "elapsed(s)", "imgs/s", "stage service means (s)"],
            rows,
            title="manual replication on warm process pools",
        )
    )

    print("\nlive adaptation (policy activates warm workers mid-run):")
    backend = ProcessPoolBackend(pipeline, max_replicas=3)
    acts = []
    try:
        session = open_pipeline(
            pipeline.stages,
            backend=backend,
            # Real stage costs sit closer together than the simulated weights,
            # so accept modest predicted gains and decide at a fast cadence.
            adaptive=local_config(
                interval=0.1, cooldown=0.2, min_improvement=1.05, rollback_tolerance=0.0
            ),
        )
        session.events.subscribe(acts.append, kinds=("adapt.act",))
        result = backend.run(make_images(120, size=256, seed=1))
    finally:
        backend.close()
    assert result.outputs is not None and len(result.outputs) == 120
    print(f"  items: {result.items}  elapsed: {result.elapsed:.2f}s")
    for act in acts:
        print(f"  event @ {act.time:.2f}s: {act.fields['action']} {act.fields['reason']}")
    history = [a.fields["replicas_before"] for a in acts[:1]]
    print(f"  replica history: {history + [a.fields['replicas_after'] for a in acts]}")
    print(f"  final replicas per stage: {result.replica_counts}")
    print("\nnote: results depend on core count; the *shape* (the heavy stage")
    print("gets the warm workers) is the point, not absolute speedups.")


if __name__ == "__main__":
    main()
