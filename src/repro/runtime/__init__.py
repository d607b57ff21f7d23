"""Building blocks of the local thread fabric (see :mod:`repro.runtime.threads`).

The fabric is wired and run by :class:`repro.backend.ThreadBackend`; it
exists for API parity, correctness testing and I/O-bound or GIL-releasing
(numpy) stages.

**GIL honesty** (see DESIGN.md): pure-Python CPU-bound stages do not run in
parallel under CPython threads, so no performance claims are made for them;
stage functions that release the GIL (numpy, I/O) do pipeline in parallel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {"threads": "StageError"})
