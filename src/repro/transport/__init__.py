"""Pluggable payload transport: codecs, shared-memory frames, link models.

The transport subsystem decouples *what* crosses an execution boundary (an
item) from *how its bytes travel* (inline pickle vs shared-memory
descriptors).  Both heavy backends route items through a
:class:`~repro.transport.frames.Codec` selected by name:

* ``"pickle"`` — everything inline (the portable baseline);
* ``"shm"`` — every eligible buffer in a recycled shared-memory slot,
  descriptors on the wire;
* ``"auto"`` — per-item by size: inline below
  :data:`~repro.transport.codecs.AUTO_THRESHOLD`, shared memory above
  (the default of both backends).

:mod:`repro.transport.linkfit` is the measurement half: size-stratified
transfer samples fitted to the ``latency + bytes/bandwidth`` model the
throughput predictor prices links with.  See ``docs/transport.md``.
"""

from __future__ import annotations

from typing import Callable

from repro.transport.codecs import (
    AUTO_THRESHOLD,
    PickleCodec,
    SharedMemoryCodec,
    calibrated_auto_threshold,
)
from repro.transport.frames import (
    SHM_PREFIX,
    Codec,
    Frame,
    PoolFootprint,
    SegmentRef,
    TransportError,
    busy_segments,
    decode_frame,
    materialize,
    new_session,
    pool_footprint,
    session_segments,
    sweep_session,
    untrack,
)
from repro.transport.linkfit import LinkModel, SizeStratifiedLinkEstimator

__all__ = [
    "AUTO_THRESHOLD",
    "Codec",
    "Frame",
    "LinkModel",
    "PickleCodec",
    "PoolFootprint",
    "SHM_PREFIX",
    "SegmentRef",
    "SharedMemoryCodec",
    "SizeStratifiedLinkEstimator",
    "TransportError",
    "available_codecs",
    "busy_segments",
    "calibrated_auto_threshold",
    "decode_frame",
    "from_spec",
    "get",
    "materialize",
    "new_session",
    "pool_footprint",
    "register_codec",
    "session_segments",
    "spec_of",
    "sweep_session",
    "untrack",
]

_REGISTRY: dict[str, Callable[..., Codec]] = {}


def register_codec(
    name: str, factory: Callable[..., Codec], *, overwrite: bool = False
) -> None:
    """Register ``factory(**kwargs) -> Codec`` under ``name``."""
    if not overwrite and name in _REGISTRY:
        raise ValueError(f"codec {name!r} is already registered")
    _REGISTRY[name] = factory


def available_codecs() -> list[str]:
    return sorted(_REGISTRY)


def get(name: str | Codec, **kwargs) -> Codec:
    """Resolve a codec by registry name (instances pass through unchanged)."""
    if isinstance(name, Codec):
        if kwargs:
            raise ValueError(
                f"codec instance given; unexpected kwargs: {sorted(kwargs)}"
            )
        return name
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown codec {name!r}; available: {', '.join(available_codecs())}"
        ) from None
    return factory(**kwargs)


def spec_of(codec: Codec) -> dict:
    """A picklable description another process can rebuild the codec from.

    Carries the registry name, the shared session token (one sweep must
    cover every party's segments) and the placement threshold where the
    codec has one — exactly what the process backend hands its forked
    workers and the distributed coordinator sends in ``welcome``.
    """
    spec = {"name": codec.name, "session": codec.session}
    threshold = getattr(codec, "threshold", None)
    if threshold is not None:
        spec["threshold"] = threshold
    return spec


def from_spec(spec: dict) -> Codec:
    """Rebuild a codec from :func:`spec_of` output (in another process)."""
    kwargs = {k: v for k, v in spec.items() if k != "name"}
    return get(spec["name"], **kwargs)


def _auto(**kwargs) -> Codec:
    kwargs.setdefault("threshold", AUTO_THRESHOLD)
    codec = SharedMemoryCodec(**kwargs)
    codec.name = "auto"  # placement policy label in frames and reports
    return codec


register_codec("pickle", PickleCodec)
register_codec("shm", SharedMemoryCodec)
register_codec("auto", _auto)
