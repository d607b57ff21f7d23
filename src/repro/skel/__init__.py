"""eSkel-flavoured skeleton API.

Thin, friendly entry points over the core machinery, in the spirit of the
Edinburgh Skeleton Library's ``Pipeline1for1``:

* :func:`repro.skel.api.pipeline_1for1` — run callables through a local
  threaded pipeline, outputs in input order;
* :func:`repro.skel.api.open_pipeline` — the streaming form: a resident
  session accepting submits as work arrives and yielding ordered results
  as items complete;
* :func:`repro.skel.api.farm` — task-farm a single callable locally;
* :func:`repro.skel.api.simulate_pipeline` — run a pipeline on a simulated
  grid, statically or adaptively;
* :func:`repro.skel.api.simulate_farm` — a farm as a one-stage replicated
  pipeline on the simulated grid.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__, {"api": "farm open_pipeline pipeline_1for1 simulate_farm simulate_pipeline"}
)
