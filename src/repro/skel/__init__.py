"""eSkel-flavoured skeleton API.

Thin, friendly entry points over the core machinery, in the spirit of the
Edinburgh Skeleton Library's ``Pipeline1for1``:

* :func:`repro.skel.api.open_pipeline` — the one way in to the executors:
  a resident session accepting submits as work arrives and yielding
  ordered results as items complete;
* :func:`repro.skel.api.pipeline_1for1` — one bounded stream on such a
  session, outputs in input order (a task farm is one replicated stage);
* :func:`repro.skel.api.simulate_pipeline` — run a pipeline on a simulated
  grid, statically or adaptively.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {"api": "open_pipeline pipeline_1for1 simulate_pipeline"}
)
