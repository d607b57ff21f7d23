#!/usr/bin/env bash
# Reachability audit: which src/repro functions no example, experiment or
# benchmark workload calls, and which of those only the tests call.
#
#   git clone . /tmp/audit && bash /tmp/audit/tools/reach/audit.sh [SECONDS]
#
# Run it in a throw-away clone: E1-E21 rewrite benchmarks/results/latest.txt.
# Every interpreter it starts imports the hook in sitecustomize.py from
# PYTHONPATH.  perfbench/run.py re-executes itself with a PYTHONPATH of its
# own unless PYTHONHASHSEED is already 0, so the perfbench runs preset it to
# keep the hook on the path.
set -u
cd "$(dirname "$0")/../.."
hook=tools/reach
rm -rf "$hook/out" "$hook/runs" "$hook/tests"
export PYTHONPATH="$hook:src:."

for example in examples/*.py; do
    python "$example" > /dev/null || echo "audit: $example failed" >&2
done
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
mv "$hook/out" "$hook/runs"

python -m pytest -q -p no:cacheprovider > /dev/null || echo "audit: tier-1 tests failed" >&2
mv "$hook/out" "$hook/tests"
python "$hook/report.py" "$hook/runs" "$hook/tests"
