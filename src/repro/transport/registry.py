"""The codec registry: ``"pickle"`` / ``"shm"`` / ``"auto"`` by name.

Both routed executors select their payload codec here, and hand the other
party (a forked worker, a socket worker) a :func:`spec_of` description to
rebuild it from.
"""

from __future__ import annotations

from typing import Callable

from repro.transport.codecs import AUTO_THRESHOLD, PickleCodec, SharedMemoryCodec
from repro.transport.frames import Codec

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
