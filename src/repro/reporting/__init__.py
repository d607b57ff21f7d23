"""Experiment harness support: sweeps, shape assertions, rendering.

* :mod:`repro.reporting.experiment` — run parameter sweeps with repetitions
  and seed control, collect tidy row dictionaries, aggregate;
* :mod:`repro.reporting.shapes` — qualitative-shape assertions (monotonic,
  ratio bounds, crossover position) used by the benchmark harnesses to check
  that reproduced results have the *shape* the paper claims;
* :mod:`repro.reporting.render` — experiment headers and result tables for
  ``bench_output.txt`` / ``EXPERIMENTS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "experiment": "aggregate sweep",
        "io": "read_rows_csv write_rows_csv",
        "quick": "quick_mode scaled",
        "render": "experiment_header rows_table",
        "shapes": (
            "assert_monotonic assert_ratio_at_least assert_within "
            "find_crossover"
        ),
    },
)
