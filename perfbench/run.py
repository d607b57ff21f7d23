"""perfbench: the repo's benchmark.  See perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--runs K] [--traced] [--out FILE]
    python3 perfbench/run.py compare A.json B.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bootstrap() -> None:
    """Fresh-interpreter protocol: fixed hash seed, this checkout's sources."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {ROOT / 'src'}")
    paths = [str(ROOT / "src"), str(ROOT)]
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(paths)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path[:0] = paths


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import harness, measure
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[name]
    harness.pin_to_one_cpu()
    try:
        if trace:
            from perfbench import layers

            metrics, tally = layers.per_layer(wl, seed, seconds)
        else:
            metrics, tally = measure.end_to_end(wl, seed, seconds)
    finally:
        harness.kill_descendants()
    for note in tally.notes:
        print(f"# {name}: {note}")
    for key, (value, unit) in metrics.items():
        print(f"{name:20s} {key:36s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    _bootstrap()
    if argv and argv[0] == "compare":
        from perfbench import suite

        return suite.compare(Path(argv[1]), Path(argv[2]))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="suite: add the traced runs")
    parser.add_argument("--runs", type=int, default=1, help="suite: runs per workload")
    parser.add_argument("--out", type=Path, help="suite: write the trajectory point here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    from perfbench import suite

    return suite.run(args.seed, args.seconds, args.runs, args.traced, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
