"""Shared utilities: seeded RNG streams, online statistics, rendering, tracing.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in :mod:`repro.util` knows about grids,
pipelines or adaptation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "rng": "derive_rng derive_seed spawn_rngs",
        "stats": (
            "EWMA OnlineStats SlidingWindow StatSummary "
            "coefficient_of_variation summarize"
        ),
        "tables": "ascii_plot format_float render_series render_table",
        "trace": "TraceEvent Tracer",
        "validation": (
            "check_in_range check_non_negative check_positive "
            "check_probability require"
        ),
    },
)
