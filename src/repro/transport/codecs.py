"""The shipped codecs: ``pickle``, ``shm`` and ``auto``.

All three produce protocol-5 pickle streams; they differ only in *buffer
placement*.  A stream that keeps nothing out of band is its own wire form
(``bytes``); one with a buffer or a segment is a :class:`Frame`:

* :class:`PickleCodec` — everything inline.  The baseline and the only
  choice across host boundaries.
* :class:`SharedMemoryCodec` — every out-of-band-capable buffer (numpy
  arrays, and any pickle stream at least ``threshold`` bytes — which
  covers large ``bytes``/``str`` payloads) goes to a shared-memory
  slot of the encoding process's pool; the frame carries descriptors.
* ``auto`` — a :class:`SharedMemoryCodec` with a large threshold
  (:data:`AUTO_THRESHOLD`): small items stay inline (a segment per tiny
  item costs more than the copy it saves), large items go by descriptor.  The
  per-item decision the adaptation story needs, without a second class.

Placement rule, per encode: pickle with ``buffer_callback``; each
contiguous out-of-band buffer of at least ``threshold`` bytes is written
into its own slot, smaller ones are serialized in-band.  If the
resulting stream itself reaches ``threshold`` (big ``bytes`` payloads,
deeply nested objects), the stream moves to a slot too.  Slots are
recycled, never created per frame: see :class:`~repro.transport.frames.
SlotPool` and the lifecycle contract in :mod:`repro.transport.frames`.
"""

from __future__ import annotations

import pickle
import weakref

from repro.transport.frames import (
    Codec,
    Frame,
    SegmentRef,
    SlotPool,
    TransportError,
    Wire,
)

__all__ = [
    "AUTO_THRESHOLD",
    "PickleCodec",
    "SharedMemoryCodec",
    "calibrated_auto_threshold",
]

#: ``auto``'s placement threshold: below this, inline pickling (one extra
#: copy through a queue/socket) is cheaper than a segment round trip.
AUTO_THRESHOLD = 256 * 1024

#: Probe sizes (log-spaced around :data:`AUTO_THRESHOLD`) and the clamp
#: the fitted crossover is held to — a pathological probe (noisy
#: scheduler, tiny /dev/shm) must not report placing everything, or
#: nothing, in segments.
_PROBE_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)
_THRESHOLD_MIN = 16 * 1024
_THRESHOLD_MAX = 1024 * 1024

_UNCALIBRATED = object()  # cache sentinel: "the probe has not run yet"
_calibrated: "int | None | object" = _UNCALIBRATED


def calibrated_auto_threshold(*, repeats: int = 3, _cache: bool = True) -> int | None:
    """Time this host's inline-vs-segment crossover size in bytes.

    Round-trips ``bytes`` payloads of a few log-spaced sizes through the
    inline pickle path and the shared-memory path, and returns the smallest
    probed size at which the segment path wins (clamped to a sane band), or
    ``None`` when shared memory is unavailable or never wins.  Cached per
    process.  No backend calls it — in one process the segment path only
    adds copies, so it never moved ``auto`` off :data:`AUTO_THRESHOLD` —
    ``perfbench/probes.py`` reads it for ``transport.auto_threshold_bytes``.
    """
    global _calibrated
    if _cache and _calibrated is not _UNCALIBRATED:
        return _calibrated  # type: ignore[return-value]
    result: int | None = None
    pickle_codec = PickleCodec()
    shm_codec = SharedMemoryCodec(threshold=1)
    try:
        for size in _PROBE_SIZES:
            payload = b"\x00" * size
            t_inline = _probe_roundtrip(pickle_codec, payload, repeats)
            t_shm = _probe_roundtrip(shm_codec, payload, repeats)
            if t_shm < t_inline:
                result = min(max(size, _THRESHOLD_MIN), _THRESHOLD_MAX)
                break
    except OSError:
        result = None  # no (or exhausted) shared memory on this host
    finally:
        shm_codec.sweep()
    if _cache:
        _calibrated = result
    return result


def _probe_roundtrip(codec: Codec, payload: bytes, repeats: int) -> float:
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        frame = codec.encode(payload)
        codec.decode(frame)
        codec.release(frame)
        best = min(best, time.perf_counter() - t0)
    return best


class PickleCodec(Codec):
    """Everything inline: one protocol-5 pickle stream per item."""

    name = "pickle"

    def encode(self, obj: object) -> bytes:
        try:
            return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            raise TransportError(f"unpicklable payload: {err!r}") from err


class SharedMemoryCodec(Codec):
    """Large buffers travel by shared-memory descriptor, not by value.

    Parameters
    ----------
    threshold:
        Minimum buffer (or stream) size in bytes to earn a segment; the
        default of 1 sends everything eligible through shared memory.
    session:
        Segment-namespace token; every party of one pipeline run shares
        it so one sweep covers them all.
    """

    name = "shm"

    def __init__(self, *, threshold: int = 1, session: str | None = None) -> None:
        super().__init__(session=session)
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = int(threshold)
        # One pool per codec, shared (under its lock) by all of a worker's
        # replica threads encoding results.  release() frees slots without
        # unlinking them, so a codec that is never close()d gives its slots
        # up when it is collected or the interpreter exits.
        self._pool = SlotPool(self.session)
        weakref.finalize(self, self._pool.drop)

    def sweep(self) -> list[str]:
        self._adopted.update(self._pool.forget())
        return super().sweep()

    def encode(self, obj: object) -> Wire:
        refs: list[SegmentRef] = []

        def place(pb: pickle.PickleBuffer) -> bool:
            # Return False -> out-of-band (we carried it); True -> in-band
            # (it then lands in the stream and is counted there).
            try:
                raw = pb.raw()
            except BufferError:  # non-contiguous: let pickle copy it in-band
                return True
            if raw.nbytes < self.threshold:
                return True
            refs.append(self._pool.place(raw))
            return False

        try:
            stream = pickle.dumps(obj, protocol=5, buffer_callback=place)
            if not refs and len(stream) < self.threshold:
                return stream  # nothing placed: the stream is the wire
            nbytes = len(stream) + sum(ref.size for ref in refs)
            head = self._pool.place(stream) if len(stream) >= self.threshold else stream
        except Exception as err:
            # Hand back any slots written before the failure (an
            # unpicklable payload, or shm exhaustion mid-placement).
            self.release(Frame(codec=self.name, stream=b"", buffers=tuple(refs)))
            if isinstance(err, TransportError):
                raise
            raise TransportError(f"unencodable payload: {err!r}") from err
        return Frame(codec=self.name, stream=head, buffers=tuple(refs), nbytes=nbytes)
