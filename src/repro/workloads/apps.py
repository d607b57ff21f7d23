"""Realistic application pipelines.

Each application exists in two forms sharing one :class:`PipelineSpec`:

* ``fn`` callables for the **thread runtime** (real numpy computation —
  numpy releases the GIL, so these genuinely pipeline on a multicore host);
* :class:`WorkModel` costs for the **simulator**, calibrated to the relative
  weight of each stage so simulated mappings are meaningful.

The apps cover the motivating workload families of grid-era pipeline
papers, image processing (filter chains) and bioinformatics (sequence
scanning), plus an I/O-bound service pipeline (simulated fetch latency).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.core.pipeline import PipelineSpec
from repro.core.stage import StageSpec
from repro.util.validation import check_positive
from repro.workloads.cost_models import LogNormalWork

__all__ = [
    "image_pipeline",
    "make_images",
    "kmer_pipeline",
    "make_sequences",
    "fetch_pipeline",
    "make_requests",
]


# --------------------------------------------------------------------- image
def make_images(n: int, size: int = 96, seed: int = 0) -> list[np.ndarray]:
    """Synthesize ``n`` grayscale test images (size x size, float64)."""
    check_positive(n, "n")
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(n):
        img = rng.random((size, size))
        # Add structure so edge detection has something to find.
        x = np.linspace(0, 4 * np.pi, size)
        img += np.sin(x)[None, :] + np.cos(x)[:, None]
        images.append(img)
    return images


def _denoise(img: np.ndarray) -> np.ndarray:
    """3x3 box blur via shifted sums (stays in numpy, releases the GIL)."""
    out = img.copy()
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            if dx or dy:
                out += np.roll(np.roll(img, dx, axis=0), dy, axis=1)
    return out / 9.0


def _edges(img: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[1:-1, 1:-1] = (
        img[:-2, 2:] + 2 * img[1:-1, 2:] + img[2:, 2:]
        - img[:-2, :-2] - 2 * img[1:-1, :-2] - img[2:, :-2]
    )
    gy[1:-1, 1:-1] = (
        img[2:, :-2] + 2 * img[2:, 1:-1] + img[2:, 2:]
        - img[:-2, :-2] - 2 * img[:-2, 1:-1] - img[:-2, 2:]
    )
    return np.hypot(gx, gy)


def _threshold(img: np.ndarray) -> np.ndarray:
    return (img > np.percentile(img, 90)).astype(np.float64)


def _summarise(img: np.ndarray) -> dict:
    return {
        "edge_pixels": int(img.sum()),
        "fraction": float(img.mean()),
    }


def image_pipeline() -> PipelineSpec:
    """Denoise → edge-detect → threshold → summarise.

    The simulated work units are tens of milliseconds per stage on the
    reference processor, matching the relative stage weights measured
    locally: edges ≈ 2x denoise, threshold ≈ 0.5x, summarise ≈ 0.1x.
    """
    return PipelineSpec(
        (
            StageSpec(
                name="denoise", work=LogNormalWork(0.04, 0.2), out_bytes=73_728,
                fn=_denoise,
            ),
            StageSpec(
                name="edges", work=LogNormalWork(0.08, 0.2), out_bytes=73_728,
                fn=_edges,
            ),
            StageSpec(
                name="threshold", work=LogNormalWork(0.02, 0.2), out_bytes=73_728,
                fn=_threshold,
            ),
            StageSpec(
                name="summarise", work=LogNormalWork(0.004, 0.2), out_bytes=64,
                fn=_summarise,
            ),
        ),
        input_bytes=73_728,
        name="image",
    )


# --------------------------------------------------------------------- kmer
def make_sequences(n: int, length: int = 20_000, seed: int = 0) -> list[str]:
    """Synthesize ``n`` random DNA sequences."""
    check_positive(n, "n")
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("ACGT"))
    return ["".join(alphabet[rng.integers(0, 4, size=length)]) for _ in range(n)]


def _gc_content(seq: str) -> tuple[str, float]:
    gc = (seq.count("G") + seq.count("C")) / len(seq)
    return seq, gc


def _kmer_count(args: tuple[str, float], k: int = 6) -> tuple[float, dict[str, int]]:
    seq, gc = args
    counts: Counter = Counter(seq[i : i + k] for i in range(len(seq) - k + 1))
    return gc, dict(counts.most_common(10))


def _report(args: tuple[float, dict[str, int]]) -> dict:
    gc, top = args
    return {"gc": gc, "top_kmer": next(iter(top), None), "distinct_top": len(top)}


# ----------------------------------------------------------------------- io
def make_requests(n: int) -> list[int]:
    """Request ids for the simulated-latency service pipeline."""
    check_positive(n, "n")
    return list(range(n))


def _simulated_latency(rid: int, base: float, jitter: float) -> float:
    """Deterministic per-request latency, identical for sync/async variants."""
    frac = ((rid * 2654435761) % 1000) / 1000.0
    return base * (1.0 - jitter + 2.0 * jitter * frac)


def fetch_pipeline(
    *,
    latency: float = 0.02,
    jitter: float = 0.25,
    asynchronous: bool = False,
) -> PipelineSpec:
    """Fetch → parse → store: a simulated-latency I/O service pipeline.

    The dominant costs are *waits* (a network fetch, a storage write), not
    computation — the workload family production services are made of.  Each
    request's latency is a deterministic function of its id, so the
    blocking variant (``time.sleep``, for the thread backend) and the
    ``asynchronous=True`` variant (``await asyncio.sleep``, for the asyncio
    backend) wait identical durations and produce identical outputs; only
    the middle ``parse`` stage is real (and cheap) CPU work, and it stays a
    plain callable in both variants.
    """
    check_positive(latency, "latency")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    if asynchronous:
        # Bound for the two coroutine stages only: the blocking variant (and
        # every other pipeline in this module) runs without the event loop.
        import asyncio

    def fetch_sync(rid: int) -> tuple[int, str]:
        time.sleep(_simulated_latency(rid, latency, jitter))
        return rid, f"payload-{rid:06d}" * 8

    async def fetch_async(rid: int) -> tuple[int, str]:
        await asyncio.sleep(_simulated_latency(rid, latency, jitter))
        return rid, f"payload-{rid:06d}" * 8

    def parse(args: tuple[int, str]) -> tuple[int, int]:
        rid, payload = args
        return rid, sum(1 for c in payload if c.isdigit())

    def store_sync(args: tuple[int, int]) -> dict:
        rid, digits = args
        time.sleep(_simulated_latency(rid + 1_000_003, 0.5 * latency, jitter))
        return {"id": rid, "digits": digits, "stored": True}

    async def store_async(args: tuple[int, int]) -> dict:
        rid, digits = args
        await asyncio.sleep(_simulated_latency(rid + 1_000_003, 0.5 * latency, jitter))
        return {"id": rid, "digits": digits, "stored": True}

    return PipelineSpec(
        (
            StageSpec(
                name="fetch", work=latency, out_bytes=16_384,
                fn=fetch_async if asynchronous else fetch_sync,
            ),
            StageSpec(
                name="parse", work=0.02 * latency, out_bytes=64,
                fn=parse,
            ),
            StageSpec(
                name="store", work=0.5 * latency, out_bytes=64,
                fn=store_async if asynchronous else store_sync,
            ),
        ),
        input_bytes=64,
        name="fetch",
    )


def kmer_pipeline() -> PipelineSpec:
    """GC-content → k-mer counting → report (k-mer stage dominates)."""
    return PipelineSpec(
        (
            StageSpec(name="gc", work=LogNormalWork(0.01, 0.2),
                      out_bytes=20_000, fn=_gc_content),
            StageSpec(name="kmers", work=LogNormalWork(0.12, 0.3),
                      out_bytes=600, fn=_kmer_count),
            StageSpec(name="report", work=LogNormalWork(0.002, 0.2),
                      out_bytes=120, fn=_report),
        ),
        input_bytes=20_000,
        name="kmer",
    )
