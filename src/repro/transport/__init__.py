"""Payload transport: codecs, shared-memory frames, the byte lane, link models.

The transport subsystem decouples *what* crosses an execution boundary (an
item) from *how its bytes travel* (inline pickle vs shared-memory
descriptors).  Both heavy backends route items through a
:class:`~repro.transport.frames.Codec` that :func:`get` builds from one of
three names, whose wire form is a self-contained pickle stream (``bytes``)
or a :class:`~repro.transport.frames.Frame` carrying buffers or descriptors:

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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "codecs": (
            "AUTO_THRESHOLD PickleCodec SharedMemoryCodec calibrated_auto_threshold "
            "from_spec get spec_of"
        ),
        "frames": (
            "SHM_PREFIX Codec Frame SegmentRef TransportError busy_segments "
            "decode_frame materialize session_segments Wire wire_nbytes"
        ),
        "linkfit": "LinkModel SizeStratifiedLinkEstimator",
    },
)
