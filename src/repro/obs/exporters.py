"""Exporters: Prometheus-text snapshots and the session telemetry façade.

:class:`Telemetry` is the one object user code configures.  It has two
settings, the two ways a deployment reads a session: ``journal=`` (the JSONL
event stream, which ``obs.top`` and ``obs.profile`` read back) and ``prometheus=``
(a text snapshot of the :class:`MetricsRecorder` fold, written on close).
It is what ``open_pipeline(..., telemetry=...)`` accepts (a bare path
string/Path is shorthand for ``Telemetry(journal=path)``), and sessions
attach it inside ``Session.__init__`` — *before* any executor machinery
starts — so even warm-up events (distributed ``worker.join``) reach it.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.obs.journal import JsonlJournal
from repro.obs.metrics import Log2Histogram, MetricsRecorder, MetricsRegistry

__all__ = ["Telemetry", "as_telemetry", "render_prometheus", "write_prometheus"]


def _fmt_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(merged.items()))
    return "{" + inner + "}"


#: Quantiles rendered as ``<name>_p50``/``_p95``/``_p99`` gauge families
#: alongside every histogram (estimated from its log2 buckets).
_PERCENTILES = ((0.5, "_p50"), (0.95, "_p95"), (0.99, "_p99"))


def render_prometheus(registry: MetricsRegistry, prefix: str = "repro_") -> str:
    """Render a registry in the Prometheus text exposition format.

    Histograms additionally export ``_p50``/``_p95``/``_p99`` gauges —
    per-label quantile estimates interpolated from the log2 buckets
    (:meth:`~repro.obs.metrics.Log2Histogram.quantile`), so dashboards get
    per-stage latency percentiles without server-side ``histogram_quantile``
    over sparse buckets.
    """
    lines: list[str] = []
    # pname -> sample lines, kept grouped so each percentile gauge family
    # renders contiguously (the text format requires family grouping).
    percentiles: dict[str, list[str]] = {}
    seen: set[str] = set()
    for name, labels, inst in registry.collect():
        full = prefix + name
        if full not in seen:
            seen.add(full)
            lines.append(f"# TYPE {full} {inst.kind}")
        if isinstance(inst, Log2Histogram):
            for bound, cum in inst.bounds():
                lines.append(
                    f"{full}_bucket{_fmt_labels(labels, {'le': f'{bound:g}'})} {cum}"
                )
            lines.append(f"{full}_bucket{_fmt_labels(labels, {'le': '+Inf'})} {inst.count}")
            lines.append(f"{full}_sum{_fmt_labels(labels)} {inst.sum:g}")
            lines.append(f"{full}_count{_fmt_labels(labels)} {inst.count}")
            if inst.count:
                for q, suffix in _PERCENTILES:
                    percentiles.setdefault(full + suffix, []).append(
                        f"{full}{suffix}{_fmt_labels(labels)} {inst.quantile(q):g}"
                    )
        else:
            lines.append(f"{full}{_fmt_labels(labels)} {inst.value:g}")
    for pname in sorted(percentiles):
        lines.append(f"# TYPE {pname} gauge")
        lines.extend(percentiles[pname])
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    registry: MetricsRegistry, path: str | os.PathLike, prefix: str = "repro_"
) -> None:
    """Atomically write a registry snapshot to ``path`` (text format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render_prometheus(registry, prefix=prefix), encoding="utf-8")
    tmp.replace(path)


class Telemetry:
    """Opt-in observability for one session.

    Parameters
    ----------
    journal:
        JSONL journal path, or a configured :class:`JsonlJournal` (say, with
        a rotation policy of its own); None disables the journal.  Each
        item's timeline is read back from it
        (:func:`~repro.obs.profile.profile_journal`).
    prometheus:
        Path to write a Prometheus text snapshot to when the session closes.
        A :class:`MetricsRecorder` folds the event stream exactly when this
        is set (its counters cost a lock each, so nothing pays for them
        unless something reads them); None keeps neither.
    """

    def __init__(
        self,
        *,
        journal: str | os.PathLike | JsonlJournal | None = None,
        prometheus: str | os.PathLike | None = None,
    ) -> None:
        if journal is None or isinstance(journal, JsonlJournal):
            self.journal = journal
        else:
            self.journal = JsonlJournal(journal)
        self.prometheus_path = Path(prometheus) if prometheus is not None else None
        self.recorder = MetricsRecorder() if prometheus is not None else None
        self._closed = False

    def attach(self, session) -> "Telemetry":
        """Subscribe the journal and the recorder to ``session.events``.

        Called by ``Session.__init__`` when the session was opened with
        ``telemetry=``.  Registers :meth:`close` as a close callback, so the
        journal flushes before the backend goes away.  That close ends the
        bundle: a ``Telemetry`` serves one session, and attaching a closed
        one raises instead of dropping the new session's records.
        """
        if self._closed:
            raise RuntimeError(
                "this Telemetry was closed with the session it served; "
                "give each session its own"
            )
        if self.journal is not None:
            session.events.subscribe(self.journal)
        if self.recorder is not None:
            self.recorder.attach(session.events)
        session.add_close_callback(self.close)
        return self

    def close(self) -> None:
        """Write the Prometheus snapshot and close the journal (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.recorder is not None:
            write_prometheus(self.recorder.registry, self.prometheus_path)
        if self.journal is not None:
            self.journal.close()


def as_telemetry(value) -> Telemetry:
    """Coerce ``telemetry=`` arguments: a path is journal shorthand."""
    if isinstance(value, Telemetry):
        return value
    if isinstance(value, (str, os.PathLike)):
        return Telemetry(journal=value)
    raise TypeError(
        f"telemetry must be a Telemetry, a journal path, or None; got {value!r}"
    )
