"""Large-payload pipelines: the transport subsystem's workload family.

The app pipelines in :mod:`repro.workloads.apps` move kilobytes per item;
serialization is noise there.  This module moves **megabytes** per item —
the regime where per-item cost is dominated by how bytes cross execution
boundaries, which is exactly what E17 measures (pickle vs shared-memory
descriptors) and what the distributed link-bandwidth fit needs to observe.

All stage callables are module-level functions, so the pipeline runs
unchanged on every backend including ``spawn``-method process pools and
distributed workers.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.util.validation import check_positive
from repro.workloads.cost_models import LogNormalWork

__all__ = ["array_pipeline", "make_arrays"]


def make_arrays(
    n: int, *, mbytes: float = 1.0, mix: list[float] | None = None, seed: int = 0
) -> list[np.ndarray]:
    """``n`` float64 arrays of ~``mbytes`` MB each (deterministic content).

    ``mix`` overrides ``mbytes`` with a set of sizes dealt evenly but in
    shuffled order — a mixed-size stream gives the size-stratified link
    estimator the spread it needs to fit bandwidth, and exercises the
    ``auto`` codec's per-item decision.  (Shuffled, not alternating: on a
    saturated link every item queues behind its predecessor's transfer, so
    a strict alternation would anti-correlate observed overhead with the
    item's own size and hide the bandwidth term from the fit.)
    """
    check_positive(n, "n")
    rng = np.random.default_rng(seed)
    if mix:
        sizes = [mix[k % len(mix)] for k in range(n)]
        rng.shuffle(sizes)
    else:
        sizes = [mbytes] * n
    arrays = []
    for mb in sizes:
        check_positive(mb, "payload size (MB)")
        cells = max(1, int(mb * 1e6 / 8))
        arrays.append(rng.random(cells))
    return arrays


def scale_array(a: np.ndarray) -> np.ndarray:
    """Normalise to zero mean, unit scale (bulk in, bulk out)."""
    return (a - a.mean()) / (a.std() + 1e-12)


def smooth_array(a: np.ndarray) -> np.ndarray:
    """Three-point moving average via shifted sums (bulk in, bulk out)."""
    out = a.copy()
    out[1:] += a[:-1]
    out[:-1] += a[1:]
    return out / 3.0


def checksum_array(a: np.ndarray) -> dict:
    """Reduce to a small summary (bulk in, ~100 B out: the sink stage)."""
    return {
        "n": int(a.size),
        "mean": float(a.mean()),
        "l2": float(np.sqrt(np.dot(a, a))),
    }


def array_pipeline(*, mbytes: float = 1.0) -> PipelineSpec:
    """Scale → smooth → checksum over ~``mbytes``-MB float64 arrays.

    The first two stages forward the full array downstream, so every hop
    pays the transport cost; the numpy kernels themselves are cheap and
    release the GIL — per-item time is transport-bound by design.
    ``mbytes`` sizes the declared byte costs for the simulator/model;
    real runs measure actual payload sizes through the monitor.
    """
    check_positive(mbytes, "mbytes")
    nbytes = float(mbytes) * 1e6
    return PipelineSpec(
        (
            StageSpec(
                name="scale", work=LogNormalWork(0.004 * mbytes, 0.2),
                out_bytes=nbytes, fn=scale_array,
            ),
            StageSpec(
                name="smooth", work=LogNormalWork(0.006 * mbytes, 0.2),
                out_bytes=nbytes, fn=smooth_array,
            ),
            StageSpec(
                name="checksum", work=LogNormalWork(0.003 * mbytes, 0.2),
                out_bytes=128, fn=checksum_array,
            ),
        ),
        input_bytes=nbytes,
        name="array",
    )
