"""The payload transport port: codecs that turn objects into wire forms.

An item crosses a lane in its **wire form**: a self-contained protocol-5
pickle stream as itself (plain ``bytes``), anything else as a
:class:`Frame` — the stream plus its out-of-band buffers, each carried
either **inline** (plain bytes, travels with the frame) or as a
:class:`SegmentRef` — the name of a shared-memory **slot** holding the
actual bytes plus the generation the slot carried when the frame was
written, so only a descriptor crosses the queue or socket.

A :class:`Codec` decides *placement* at encode time (which buffers go to
shared memory); decoding is codec-agnostic because wire forms are
self-describing — :func:`decode_frame` reconstructs the object from any
wire, wherever it was encoded.  The lifecycle contract (for frames: a
``bytes`` wire holds no slot):

* ``encode`` takes a slot from the encoding process's :class:`SlotPool`
  (the lowest-index free slot of the buffer's power-of-two size class,
  created only when none is free), stamps a fresh generation into the
  slot's header and writes the bytes;
* ``decode`` **copies** buffer contents out of slots and changes nothing
  — decoding is side-effect-free, so an item can be re-dispatched after a
  consumer crash — and checks the generation before and after the copy: a
  released or recycled slot raises :class:`TransportError`, never yields
  another frame's bytes;
* ``release`` hands a frame's slots back by clearing each header *iff* it
  still carries the frame's generation.  Exactly one party owns each
  frame's release (the worker for process-pool task frames, the
  coordinator for everything distributed); duplicate or late releases are
  no-ops, even once the slot was re-issued;
* :meth:`Codec.sweep` unlinks: every slot of a session, free or not
  (``close()``, abort paths, crashed workers).  Nothing else does, except
  that a codec which is never closed gives its slots up when it is
  collected or the interpreter exits: free ones are unlinked then, busy
  ones by their frame's release.

Slots are reached through their descriptor (opened by name, ``pread``/
``pwrite``, closed — per operation; no process keeps a handle), never
mapped: pool pages stay out of every process's resident set and no
resource tracker ever hears of them.  That needs POSIX shared memory
whose descriptors support ``read``/``write`` (Linux, the BSDs) — the
platforms the ``fork`` default and the ``/dev/shm`` sweep already assume.

Slot names share a per-session prefix (``repro-shm-<session>-``) so a
sweep can find orphans by name alone, and so leak checks (tests, CI) can
assert the namespace is empty.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

try:  # CPython's own POSIX shared-memory calls (shm_open, shm_unlink)
    import _posixshmem
except ImportError:  # no POSIX shared memory: every segment call raises OSError
    _posixshmem = None

__all__ = [
    "Codec",
    "Frame",
    "SegmentRef",
    "SHM_PREFIX",
    "SlotPool",
    "TransportError",
    "busy_segments",
    "decode_frame",
    "materialize",
    "session_segments",
    "Wire",
    "wire_nbytes",
]

#: Common prefix of every shared-memory segment this package creates.
SHM_PREFIX = "repro-shm-"

#: Where POSIX shared memory is visible as files (Linux); sweeps and leak
#: checks list it (:func:`session_segments`).  On platforms without it, sweeps
#: fall back to the names a codec created or adopted.
_SHM_DIR = "/dev/shm"

#: Every slot starts with its header: the generation of the frame living in
#: it (little-endian, all zeroes while the slot is free), then a byte that
#: is 1 once the pool that created the slot is gone; payload bytes follow.
_GEN, _ORPHAN, _HEADER = 8, 8, 16
_FREE = bytes(_GEN)

#: Smallest slot payload (one page); size classes double from here.
_MIN_SLOT = 4096


class TransportError(RuntimeError):
    """A frame could not be encoded, decoded or released."""


@dataclass(frozen=True)
class SegmentRef:
    """Descriptor of the bytes one frame wrote into a shared-memory slot.

    ``size`` is the payload length (the slot is its power-of-two size
    class, or larger); ``gen`` is the generation the slot's header carried
    when the bytes were written — a reader that finds another value there
    is holding a released or recycled reference.
    """

    name: str
    size: int
    gen: int = 0


@dataclass(frozen=True)
class Frame:
    """A wire form that is not a bare stream: a pickle stream plus its
    out-of-band buffers.

    ``stream`` and each entry of ``buffers`` are either plain bytes
    (inline) or a :class:`SegmentRef`.  ``nbytes`` is the total payload
    size — stream plus all buffers, regardless of placement — which is
    what transfer-time models and the monitor's byte accounting consume.
    ``codec`` names the codec that chose the placement (reporting only;
    decoding needs no codec).
    """

    codec: str
    stream: bytes | SegmentRef
    buffers: tuple[bytes | SegmentRef, ...] = ()
    nbytes: int = 0

    def segment_refs(self) -> list[SegmentRef]:
        parts: list[bytes | SegmentRef] = [self.stream, *self.buffers]
        return [p for p in parts if isinstance(p, SegmentRef)]


#: One payload on a lane: a self-contained pickle stream, or a :class:`Frame`.
Wire = bytes | Frame


def wire_nbytes(wire: Wire) -> int:
    """The payload size of a wire form: a stream's length, a frame's ``nbytes``."""
    return len(wire) if type(wire) is bytes else wire.nbytes


# ------------------------------------------------------------------ segments
def _shm_open(name: str, flags: int) -> int:
    if _posixshmem is None:
        raise OSError("POSIX shared memory is not available on this platform")
    return _posixshmem.shm_open("/" + name, flags, mode=0o600)


def _shm_unlink(name: str) -> bool:
    """Unlink one segment by name; False when it was already gone."""
    if _posixshmem is None:
        return False
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


# release() is compare-then-clear: serialised per process so two releases of
# one frame cannot both pass the compare around a re-issue (across
# processes each frame has exactly one releaser).
_release_lock = threading.Lock()
_serial = itertools.count(1)  # slot-name suffix, never reused in a process


def _fresh_release_lock() -> None:
    """In a forked child: another thread may have held the lock at the fork."""
    global _release_lock
    _release_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_release_lock)


@contextmanager
def _opened(name: str, flags: int = os.O_RDWR):
    """The slot's descriptor for one operation (FileNotFoundError once swept).

    Opened and closed per use — no process keeps a handle on a slot, so
    live frames never count against its descriptor limit, a forked child
    inherits none, and a sweep has nothing to close.
    """
    fd = _shm_open(name, flags)
    try:
        yield fd
    finally:
        os.close(fd)


def _read_segment(ref: SegmentRef) -> bytearray:
    """Copy a frame's bytes out of its slot (writable, so numpy views stay mutable)."""
    gen = ref.gen.to_bytes(_GEN, "little")
    # The generation brackets the copy: equal before and after means no
    # release — hence no re-issue — overlapped it.
    try:
        with _opened(ref.name) as fd:
            if gen != _FREE and os.pread(fd, _GEN, 0) == gen:
                data = bytearray(ref.size)
                view, got = memoryview(data), 0
                while got < ref.size:
                    n = os.preadv(fd, [view[got:]], _HEADER + got)
                    if not n:
                        break
                    got += n
                if got == ref.size and os.pread(fd, _GEN, 0) == gen:
                    return data
    except FileNotFoundError as err:
        raise TransportError(
            f"shared-memory slot {ref.name!r} is gone (swept by close() or an abort)"
        ) from err
    raise TransportError(
        f"shared-memory slot {ref.name!r} no longer holds generation {ref.gen} "
        "(the frame was released, and the slot possibly recycled, before decode)"
    )


def _release_segment(ref: SegmentRef) -> None:
    """Free the slot iff it still holds ``ref``'s frame (else a no-op).

    A slot whose pool is gone (see :meth:`SlotPool.drop`) has nobody left
    to recycle it: its last release unlinks it.
    """
    try:
        with _opened(ref.name) as fd, _release_lock:
            if os.pread(fd, _GEN, 0) == ref.gen.to_bytes(_GEN, "little"):
                os.pwrite(fd, _FREE, 0)
                if os.pread(fd, 1, _ORPHAN) == b"\x01":  # read *after* the clear
                    _shm_unlink(ref.name)
    except FileNotFoundError:
        pass  # swept


class SlotPool:
    """The slots one process created for one session, recycled in place.

    ``place`` is the only way payload bytes enter shared memory.  It is
    bounded by what bounds live frames (admission window, lane
    capacities): lowest-index-first reuse keeps each size class at the
    peak number of frames that were simultaneously alive in it.  Whether a
    slot is free is read from its header, because the process that
    releases a frame is usually not the one that created the slot.
    """

    def __init__(self, session: str) -> None:
        self._prefix = f"{SHM_PREFIX}{session}-"
        self._lock = threading.Lock()
        self._owner = os.getpid()
        self._slots: dict[int, list[str]] = {}  # size class -> names, oldest first
        # Random origin: a reference can never match a header left in a
        # same-named slot by an earlier process that reused this pid.
        self._gen = itertools.count(int.from_bytes(os.urandom(7), "little") + 1)

    def place(self, data) -> SegmentRef:
        """Write ``data`` into the lowest-index free slot of its size class."""
        view = memoryview(data)  # bytes, or the flat view PickleBuffer.raw() gives
        size = view.nbytes
        gen = next(self._gen)
        name, fd = self._claim(
            1 << (max(size, _MIN_SLOT) - 1).bit_length(), gen.to_bytes(_GEN, "little")
        )
        try:
            put = 0
            while put < size:
                put += os.pwrite(fd, view[put:], _HEADER + put)
        except BaseException:
            os.pwrite(fd, _FREE, 0)
            raise
        finally:
            os.close(fd)
        return SegmentRef(name=name, size=size, gen=gen)

    def _claim(self, klass: int, stamp: bytes) -> tuple[str, int]:
        """Stamp a free slot of ``klass`` (growing the pool if none is): its
        name and an open descriptor the caller closes."""
        with self._lock:
            if self._owner != os.getpid():  # forked copy: the parent's slots are not ours
                self._owner, self._slots = os.getpid(), {}
            names = self._slots.setdefault(klass, [])
            for name in list(names):
                try:
                    fd = _shm_open(name, os.O_RDWR)
                except FileNotFoundError:  # someone swept the session under us
                    names.remove(name)
                    continue
                if os.pread(fd, _GEN, 0) == _FREE:
                    os.pwrite(fd, stamp, 0)
                    return name, fd
                os.close(fd)
            while True:
                name = f"{self._prefix}{os.getpid()}-{next(_serial)}"
                try:
                    fd = _shm_open(name, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                    break
                except FileExistsError:  # left by a dead process that had this pid
                    continue
            names.append(name)
            try:
                os.ftruncate(fd, _HEADER + klass)  # sparse: pages appear when written
                os.pwrite(fd, stamp, 0)
            except BaseException:  # /dev/shm is full
                os.close(fd)
                raise
            return name, fd

    def forget(self) -> list[str]:
        """Empty the pool (its names were, or are about to be, swept)."""
        with self._lock:
            slots, self._slots = self._slots, {}
        return [name for names in slots.values() for name in names]

    def drop(self) -> None:
        """Give up this process's slots: the finalizer of a codec nobody closed.

        Free slots are unlinked here.  One that still holds a live frame is
        marked orphaned instead, and unlinked by that frame's release —
        the mark is written before the header is read and release reads it
        after clearing the header, so one of the two always sees the other.
        A forked copy owns nothing.
        """
        if self._owner != os.getpid():
            return
        for name in self.forget():
            try:
                with _opened(name) as fd:
                    os.pwrite(fd, b"\x01", _ORPHAN)
                    if os.pread(fd, _GEN, 0) == _FREE:
                        _shm_unlink(name)
            except FileNotFoundError:  # already swept
                pass


def _copied(frame: Frame) -> tuple[bytes, list]:
    """A frame's stream and buffers, segments copied out (buffers stay
    bytearray: pickle rebuilds numpy arrays as writable views of them)."""
    stream = frame.stream
    if isinstance(stream, SegmentRef):
        stream = bytes(_read_segment(stream))
    return stream, [_read_segment(b) if isinstance(b, SegmentRef) else b for b in frame.buffers]


def decode_frame(wire: Wire) -> object:
    """Reconstruct the object from either wire form (does **not** release it)."""
    if type(wire) is bytes:  # one loads: no buffers, no segments
        try:
            return pickle.loads(wire)
        except Exception as err:
            raise TransportError(f"undecodable stream: {err!r}") from err
    stream, buffers = _copied(wire)
    try:
        return pickle.loads(stream, buffers=buffers)
    except TransportError:
        raise
    except Exception as err:
        raise TransportError(f"undecodable frame ({wire.codec}): {err!r}") from err


def materialize(wire: Wire) -> Wire:
    """An equivalent self-contained wire (segments copied inline; the bare
    stream when no buffer is left, and a wire with no segment as it is).

    Used when a frame must cross a boundary shared memory cannot (a remote
    worker); the source slots are handed back.
    """
    refs = [] if type(wire) is bytes else wire.segment_refs()
    if not refs:
        return wire
    stream, buffers = _copied(wire)
    for ref in refs:
        _release_segment(ref)
    if not buffers:
        return stream
    return Frame(codec=wire.codec, stream=stream, buffers=tuple(buffers), nbytes=wire.nbytes)


def session_segments(session: str | None = None) -> list[str]:
    """Names of the session's segments still alive (Linux: lists /dev/shm);
    with no session, every segment this package named."""
    prefix = SHM_PREFIX if session is None else f"{SHM_PREFIX}{session}-"
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:
        return []
    return sorted(e for e in entries if e.startswith(prefix))


def busy_segments(session: str) -> list[str]:
    """Names of the session's slots that hold a live (unreleased) frame.

    Empty between streams on a healthy warm backend — free slots stay, to
    be recycled — but for a warm distributed coordinator's negotiation
    probe, a frame it holds until ``close()``.
    """
    busy = []
    for name in session_segments(session):
        try:
            with _opened(name, os.O_RDONLY) as fd:
                if os.pread(fd, _GEN, 0) != _FREE:
                    busy.append(name)
        except OSError:
            pass  # swept between the listing and the open
    return busy


class Codec:
    """Placement policy port: object -> wire form and back.

    A codec's ``encode(obj)`` returns the pickle stream as ``bytes`` when
    that is self-contained, else a :class:`Frame` carrying its buffers.
    Instances are cheap and process-local; what must be *shared* between
    the parties of one pipeline run is only the session token (so sweeps
    cover every process's segments) and the placement parameters (so both
    sides agree on what travels by descriptor).
    """

    name: str

    #: The slots this codec places into (None: it places nothing).
    _pool: SlotPool | None = None

    def __init__(self, *, session: str | None = None) -> None:
        self.session = session if session is not None else uuid.uuid4().hex[:12]

    # ------------------------------------------------------------------ port
    #: Reconstruct the object (wire forms are self-describing; no release).
    decode = staticmethod(decode_frame)

    def release(self, wire: Wire) -> None:
        """Hand a frame's slots back (a ``bytes`` wire holds none); duplicate
        or late release is a no-op."""
        if type(wire) is not bytes:
            for ref in wire.segment_refs():
                _release_segment(ref)

    def sweep(self) -> list[str]:
        """Unlink every surviving segment of this codec's session; returns
        the removed names.

        The one place names are unlinked — ``close()`` and the abort/crash
        safety net alike: callers run it once the session's producers and
        consumers are all stopped (a straggler's decode then raises, its
        release is a no-op).  The names this codec's pool created are the
        portable fallback for platforms without a /dev/shm to list.
        """
        names = set(session_segments(self.session))
        if self._pool is not None:
            names.update(self._pool.forget())
        return [name for name in sorted(names) if _shm_unlink(name)]

    def close(self) -> None:
        """Sweep the session (idempotent)."""
        self.sweep()
