"""E14 (table): execution-backend comparison on a CPU-bound workload.

Claim: the *same* :class:`PipelineSpec` runs unchanged on the simulator,
the thread runtime and the warm process pools, and both executors keep the
1-for-1 output contract: their outputs equal a sequential reference.  On a
pure-Python CPU-bound pipeline (k-mer counting — the GIL never releases for
long), threads cannot exceed one core, while the process backend is limited
only by the host's core count; the table quantifies that gap on this
machine.  The simulator row is :func:`~repro.skel.api.simulate_pipeline` on a four-node grid: its
"elapsed" is simulated seconds from the work models — the analytic
reference point, not a wall clock.
"""

import json

from repro.backend import make_backend
from repro.gridsim.spec import uniform_grid
from repro.model.mapping import Mapping
from repro.reporting.render import experiment_header
from repro.reporting.quick import scaled
from repro.skel.api import simulate_pipeline
from repro.util.tables import render_table
from repro.workloads.apps import kmer_pipeline, make_sequences

BACKENDS = ["threads", "processes"]
N_ITEMS = scaled(24, 8)
SEQ_LEN = scaled(6_000, 1_500)
REPLICAS = [1, 2, 1]  # farm the dominant k-mer stage
# The simulator expresses the same shape as a mapping: stage 1 farmed
# over two processors of a four-node grid.
SIM_MAPPING = Mapping(((0,), (1, 3), (2,)))


def reference(pipeline, inputs):
    """The stages applied in order, one item at a time."""
    outputs = []
    for item in inputs:
        for stage in pipeline.stages:
            item = stage.fn(item)
        outputs.append(item)
    return outputs


def run_experiment():
    pipeline = kmer_pipeline()
    inputs = make_sequences(N_ITEMS, length=SEQ_LEN, seed=14)
    sim = simulate_pipeline(
        pipeline, uniform_grid(4), N_ITEMS, adaptive=False, mapping=SIM_MAPPING
    )
    rows = [
        {
            "backend": "simulator",
            "items": sim.items_completed,
            "elapsed_s": sim.end_time,
            "throughput_items_s": sim.items_completed / sim.end_time,
            "replicas": [len(r) for r in sim.final_mapping.stages],
        }
    ]
    outputs = {"reference": reference(pipeline, inputs)}
    for name in BACKENDS:
        with make_backend(name, pipeline, replicas=list(REPLICAS)) as b, b.open() as s:
            for item in inputs:
                s.submit(item)
            outputs[name] = s.drain()
            elapsed = s.last_stream_elapsed
            rows.append(
                {
                    "backend": name,
                    "items": len(outputs[name]),
                    "elapsed_s": elapsed,
                    "throughput_items_s": len(outputs[name]) / elapsed,
                    "replicas": b.replica_counts(),
                }
            )
    return rows, outputs


def test_e14_backends(benchmark, report):
    rows, outputs = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    # The 1-for-1 contract: both executors compute the sequential
    # reference's outputs, in input order.
    assert outputs["processes"] == outputs["threads"] == outputs["reference"]
    for row in rows:
        assert row["items"] == N_ITEMS, row
        assert row["elapsed_s"] > 0, row

    report(
        "\n".join(
            [
                experiment_header(
                    "E14",
                    "execution backends on a CPU-bound k-mer pipeline (table)",
                    "identical ordered outputs; process pools scale past the GIL",
                ),
                render_table(
                    ["backend", "items", "elapsed(s)", "items/s", "replicas"],
                    [
                        [
                            r["backend"],
                            r["items"],
                            r["elapsed_s"],
                            r["throughput_items_s"],
                            str(r["replicas"]),
                        ]
                        for r in rows
                    ],
                ),
                "(simulator elapsed is simulated seconds, not wall clock)",
                "json: " + json.dumps(rows),
            ]
        )
    )
