"""Experiment harness support: quick mode, shape assertions, rendering.

* :mod:`repro.reporting.quick` — the ``REPRO_BENCH_QUICK`` smoke-size switch;
* :mod:`repro.reporting.shapes` — qualitative-shape assertions (monotonic,
  ratio bounds, crossover position) used by the benchmark harnesses to check
  that reproduced results have the *shape* the paper claims;
* :mod:`repro.reporting.render` — the experiment header of every report
  block in ``benchmarks/results/latest.txt``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "quick": "quick_mode scaled",
        "render": "experiment_header",
        "shapes": (
            "assert_monotonic assert_ratio_at_least assert_within "
            "find_crossover"
        ),
    },
)
