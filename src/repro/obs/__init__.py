"""Unified telemetry: structured events, metrics, spans, exporters, top.

The observability layer over the streaming/adaptive stack (see
``docs/observability.md``): sessions emit :class:`Event` records on a
per-session :class:`EventBus` (schema in :data:`SCHEMA`), and the pieces
here consume them —

* :class:`JsonlJournal` — durable JSONL stream with rotation;
* :class:`MetricsRegistry`/:class:`MetricsRecorder` — counters, gauges and
  log2 histograms with per-stage/per-worker labels: the one fold behind both
  the Prometheus snapshot and ``top``;
* :func:`spans_from_journal` — per-item submit→service→yield timelines,
  rebuilt from a journal;
* :class:`Telemetry` — what ``open_pipeline(..., telemetry=...)`` accepts:
  a journal, a Prometheus snapshot, or both;
* ``python -m repro.obs.top`` — live terminal view over a journal.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "events": "NULL_BUS SCHEMA Event EventBus",
        "exporters": "Telemetry as_telemetry render_prometheus write_prometheus",
        "journal": "JsonlJournal read_journal",
        "metrics": "Counter Gauge Log2Histogram MetricsRecorder MetricsRegistry",
        "spans": "Span SpanCollector spans_from_journal",
    },
)
