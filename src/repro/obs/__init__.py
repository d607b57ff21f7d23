"""Unified telemetry: structured events, metrics, exporters, top, profile.

The observability layer over the streaming/adaptive stack (see
``docs/observability.md``): sessions emit :class:`Event` records on a
per-session :class:`EventBus` (schema in :data:`SCHEMA`), and the pieces
here consume them —

* :class:`JsonlJournal` — durable JSONL stream with rotation;
* :class:`MetricsRegistry`/:class:`MetricsRecorder` — counters, gauges and
  log2 histograms with per-stage/per-worker labels: the one fold behind both
  the Prometheus snapshot and ``top``;
* :class:`Telemetry` — what ``open_pipeline(..., telemetry=...)`` accepts:
  a journal, a Prometheus snapshot, or both;
* ``python -m repro.obs.top`` — live terminal view over a journal;
* ``python -m repro.obs.profile`` — each item's submit→yield latency, tiled
  into named phases from the journal's records
  (:func:`~repro.obs.profile.profile_journal`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "events": "NULL_BUS SCHEMA Event EventBus",
        "exporters": "Telemetry as_telemetry render_prometheus write_prometheus",
        "journal": "JsonlJournal read_journal",
        "metrics": "Counter Gauge Log2Histogram MetricsRecorder MetricsRegistry",
    },
)
