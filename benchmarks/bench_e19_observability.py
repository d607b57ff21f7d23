"""E19 (table): telemetry overhead — off vs journal vs journal + Prometheus.

Claim: the observability layer is close to free when off and cheap when
on.  ``emit`` on a bus with no subscribers is one branch, so a session
opened without ``telemetry=`` pays nothing measurable; the JSONL journal
exporter (the mode production runs would leave on) must cost at most a
few percent of items/sec; the full mode — both of ``Telemetry``'s
settings, the journal and the Prometheus snapshot with the metrics fold
behind it — bounds the worst case.

Per backend the harness streams the same bounded workload through one
warm session per mode and reports items/sec plus the ratio against the
telemetry-off baseline.  Acceptance: the journal mode holds >= 0.95x of
baseline throughput on both the thread and the process backends.
"""

import json
import time

from repro.backend import make_backend
from repro.obs import Telemetry
from repro.reporting.quick import scaled
from repro.reporting.render import experiment_header
from repro.util.tables import render_table

BACKENDS = ["threads", "processes"]
N_ITEMS = scaled(300, 120)
N_STREAMS = 5
STAGE_SLEEP = 0.002


def _stage_a(x):
    return x + 1


def _stage_b(x):
    time.sleep(STAGE_SLEEP)
    return x * 2


def _pipeline():
    from repro.core.pipeline import PipelineSpec
    from repro.core.stage import StageSpec

    return PipelineSpec(
        (
            StageSpec(name="prep", work=0.0001, fn=_stage_a),
            StageSpec(name="work", work=STAGE_SLEEP, fn=_stage_b, replicable=True),
        )
    )


def _expected(n):
    return [(x + 1) * 2 for x in range(n)]


def _telemetry(mode, tmpdir, backend):
    if mode == "off":
        return None
    if mode == "journal":
        return Telemetry(journal=tmpdir / f"{backend}-journal.jsonl")
    return Telemetry(  # "full"
        journal=tmpdir / f"{backend}-full.jsonl",
        prometheus=tmpdir / f"{backend}.prom",
    )


def _stream_time(session):
    t0 = time.perf_counter()
    for i in range(N_ITEMS):
        session.submit(i)
    outputs = session.drain()
    dt = time.perf_counter() - t0
    assert outputs == _expected(N_ITEMS)
    return dt


def _measure_modes(backend_name, tmpdir):
    """Best items/sec per mode, with the modes interleaved round-robin.

    All three sessions stay warm for the whole measurement and every round
    runs one stream through each, so drift (CPU frequency, scheduler load)
    hits the modes equally instead of biasing whichever ran first.  Best-of
    (minimum stream time) rather than the mean: noise only ever slows a
    stream down, so the minimum estimates what the mode itself costs.
    """
    modes = ("off", "journal", "full")
    pipe = _pipeline()
    backends, sessions, times = {}, {}, {m: [] for m in modes}
    try:
        for m in modes:
            backends[m] = make_backend(backend_name, pipe, replicas=[1, 2], max_replicas=2)
            sessions[m] = backends[m].open(telemetry=_telemetry(m, tmpdir, backend_name))
            _stream_time(sessions[m])  # warm-up stream, discarded
        for _ in range(N_STREAMS):
            for m in modes:
                times[m].append(_stream_time(sessions[m]))
    finally:
        for m in modes:
            if m in sessions:
                sessions[m].close()
            if m in backends:
                backends[m].close()
    return {m: N_ITEMS / min(times[m]) for m in modes}


def run_experiment(tmpdir):
    rows = []
    for name in BACKENDS:
        tps = _measure_modes(name, tmpdir)
        rows.append(
            {
                "backend": name,
                "items": N_ITEMS,
                "off_tp": tps["off"],
                "journal_tp": tps["journal"],
                "full_tp": tps["full"],
                "journal_ratio": tps["journal"] / tps["off"],
                "full_ratio": tps["full"] / tps["off"],
            }
        )
    return rows


def test_e19_observability(benchmark, report, tmp_path):
    rows = benchmark.pedantic(run_experiment, args=(tmp_path,), rounds=1, iterations=1)

    for row in rows:
        # The journal exporter is the always-on production mode: at most
        # 5% items/sec overhead (the issue's acceptance bar).
        assert row["journal_ratio"] >= 0.95, row

    report(
        "\n".join(
            [
                experiment_header(
                    "E19",
                    "telemetry overhead: off vs journal vs journal + Prometheus",
                    "journal exporter within 5% of baseline throughput",
                ),
                render_table(
                    [
                        "backend",
                        "items",
                        "off(it/s)",
                        "journal(it/s)",
                        "full(it/s)",
                        "journal/off",
                        "full/off",
                    ],
                    [
                        [
                            r["backend"],
                            r["items"],
                            f"{r['off_tp']:.0f}",
                            f"{r['journal_tp']:.0f}",
                            f"{r['full_tp']:.0f}",
                            f"x{r['journal_ratio']:.3f}",
                            f"x{r['full_ratio']:.3f}",
                        ]
                        for r in rows
                    ],
                ),
                "",
                *[f"json: {json.dumps({'experiment': 'E19', **r})}" for r in rows],
            ]
        )
    )
