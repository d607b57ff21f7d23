#!/usr/bin/env bash
# Reachability audit: which src/repro functions no example, experiment,
# benchmark workload or CI telemetry command calls, and which of those only
# the tests call.
#
#   git clone . /tmp/audit && bash /tmp/audit/tools/reach/audit.sh [SECONDS]
#
# Run it in a throw-away clone: E1-E21 rewrite benchmarks/results/latest.txt.
# Every interpreter it starts imports the hook in sitecustomize.py from
# PYTHONPATH.  perfbench/run.py re-executes itself with a PYTHONPATH of its
# own unless PYTHONHASHSEED is already 0, so the perfbench runs preset it to
# keep the hook on the path.
#
# The run set is CI's: the examples, E1-E21 in quick mode, perfbench's
# workloads (plain and traced), and the obs-smoke telemetry commands (the
# streaming example with REPRO_OBS_JOURNAL, on a file and on /dev/full, a
# two-stream processes journal, the Prometheus stage families under
# batching with that session journaled too, a two-worker distributed
# journal, a threads and a processes session that shrink and grow a stage
# between streams, and obs.top and obs.profile
# (--slowest and --json) over each journal) and the shm leak check.  Two
# things to expect from it:
# - Quick mode skips E1-E13's shape assertions, so reporting/shapes.py shows
#   as unreached; full mode reaches it, which is why it stays.
# - Tier-1's wall-clock tests can fail under the profile hook (it slows
#   every call), printing "tier-1 tests failed"; the test column still
#   covers every test that ran.
set -u
cd "$(dirname "$0")/../.."
hook=tools/reach
rm -rf "$hook/out" "$hook/runs" "$hook/tests"
export PYTHONPATH="$hook:src:."
tmp=$(mktemp -d)

for example in examples/*.py; do
    python "$example" > /dev/null || echo "audit: $example failed" >&2
done
REPRO_OBS_JOURNAL="$tmp/stream.jsonl" python examples/streaming_pipeline.py > /dev/null \
    || echo "audit: journaled streaming example failed" >&2
REPRO_OBS_JOURNAL=/dev/full python examples/streaming_pipeline.py > /dev/null 2>&1 \
    || echo "audit: streaming example on a full journal disk failed" >&2
python - "$tmp" <<'EOF' || echo "audit: telemetry sessions failed" >&2
import sys
from repro.obs import Telemetry
from repro.skel.api import open_pipeline

tmp = sys.argv[1]
for backend, extra in (("processes", {}), ("distributed", {"spawn_workers": 2})):
    with open_pipeline([abs, abs], backend=backend, telemetry=f"{tmp}/{backend}.jsonl", **extra) as s:
        for _ in range(2):
            for x in range(100):
                s.submit(-x)
            assert s.drain() == list(range(100))
with open_pipeline([abs, abs], backend="threads", batching=16,
                   telemetry=Telemetry(journal=f"{tmp}/batched.jsonl",
                                       prometheus=f"{tmp}/batched.prom")) as s:
    for x in range(640):
        s.submit(x)
    assert s.drain() == list(range(640))
# A live controller shrinks a stage only when timing says so: grow and
# shrink a replicated stage by hand between streams, so each audit reaches both.
for backend in ("threads", "processes"):
    with open_pipeline([abs, abs], backend=backend, replicas=[1, 2]) as s:
        for replicas in (2, 1, 2):
            s.backend.reconfigure(1, replicas)
            for x in range(50):
                s.submit(-x)
            assert s.drain() == list(range(50))
EOF
for journal in "$tmp"/*.jsonl; do
    python -m repro.obs.top "$journal" --once > /dev/null || echo "audit: top $journal failed" >&2
    python -m repro.obs.profile "$journal" --slowest 3 > /dev/null \
        || echo "audit: profile $journal failed" >&2
    python -m repro.obs.profile "$journal" --json > /dev/null \
        || echo "audit: profile --json $journal failed" >&2
done
rm -rf "$tmp"
# Expect E20 to fail its 5 % tracing-overhead gate: the hook taxes the traced
# mode more than the plain one.  Only E20's report rendering follows the gate.
REPRO_BENCH_QUICK=1 python -m pytest benchmarks -q -p no:cacheprovider > /dev/null \
    || echo "audit: benchmarks failed" >&2
for workload in $(python -c 'from perfbench.workloads import WORKLOADS; print(*WORKLOADS)'); do
    for trace in 0 1; do
        PYTHONHASHSEED=0 python perfbench/run.py --workload "$workload" --seconds "${1:-2}" \
            --trace "$trace" > /dev/null || echo "audit: $workload --trace $trace failed" >&2
    done
done
python -m repro.transport.leakcheck > /dev/null || echo "audit: leakcheck failed" >&2
mv "$hook/out" "$hook/runs"

python -m pytest -q -p no:cacheprovider > /dev/null || echo "audit: tier-1 tests failed" >&2
mv "$hook/out" "$hook/tests"
python "$hook/report.py" "$hook/runs" "$hook/tests"
