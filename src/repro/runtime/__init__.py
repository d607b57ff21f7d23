"""Building blocks of the local fabric: thread workers (:mod:`repro.runtime.threads`)
and coroutine stages (:mod:`repro.runtime.coroutines`), wired by
:class:`repro.backend.ThreadBackend`.

**GIL honesty**: pure-Python CPU-bound stages do not run in parallel under
CPython threads, so no performance claims are made for them; stage functions
that release the GIL (numpy, I/O) do pipeline in parallel.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {"threads": "StageError"})
