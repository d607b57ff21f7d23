"""Shared utilities: seeded RNG streams, online statistics, rendering.

These helpers are deliberately dependency-light (numpy only) and are used by
every other subpackage.  Nothing in :mod:`repro.util` knows about grids,
pipelines or adaptation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "rng": "derive_rng derive_seed",
        "stats": "OnlineStats SlidingWindow",
        "tables": "ascii_plot format_float render_series render_table",
        "validation": "check_non_negative check_positive check_probability",
    },
)
