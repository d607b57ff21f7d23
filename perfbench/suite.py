"""All eight workloads in fresh interpreters, the trajectory file, compare."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from perfbench import harness as h
from perfbench.stats import median, spread, verdict
from perfbench.workloads import WORKLOADS

CONTRACT = h.HERE.parent / "BENCHMARK.json"
NOISE = 0.15  # spin-speed drift beyond which a workload is rerun once


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in its own interpreter; its result line, parsed."""
    proc = subprocess.run(
        [sys.executable, str(h.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name} (trace={trace}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith("#"):
            print(line)
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=h.HERE, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run(seed: int, seconds: float, runs: int, traced: bool, out: Path | None) -> int:
    import numpy

    if out is not None and out.exists():
        print(f"perfbench: {out} exists; the trajectory is append-only", file=sys.stderr)
        return 2
    h.pin_to_one_cpu()
    spin_start = h.spin_mops(0.5)
    point = {
        "seed": seed, "seconds": seconds, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "loadavg": os.getloadavg(),
        "host.spin_mops": spin_start, "workloads": {},
    }
    for name in WORKLOADS:
        row = point["workloads"][name] = {
            "noisy": False, "attempted": [], "failed": [], "end_to_end": {}, "per_layer": {},
        }
        for trace, kind, count in ((0, "end_to_end", runs), (1, "per_layer", int(traced))):
            for _ in range(count):
                result = _child(name, seed, seconds, trace)
                # Noise sentinel: a neighbour's burst shows as spin drift.
                if abs(h.spin_mops(0.5) - spin_start) > NOISE * spin_start:
                    result = _child(name, seed, seconds, trace)
                    if abs(h.spin_mops(0.5) - spin_start) > NOISE * spin_start:
                        row["noisy"] = True
                row["attempted"].append(result["attempted"])
                row["failed"].append(result["failed"])
                for metric, cell in result["metrics"].items():
                    slot = row[kind].setdefault(metric, {"unit": cell["unit"], "values": []})
                    slot["values"].append(cell["value"])
        _print_row(name, row)
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "x") as fh:  # "x": never overwrite a trajectory point
            json.dump(point, fh, indent=1)
    return 1 if any(sum(r["failed"]) for r in point["workloads"].values()) else 0


def _print_row(name: str, row: dict) -> None:
    flag = "  [noisy]" if row["noisy"] else ""
    share = sum(row["failed"]) / sum(row["attempted"])
    print(f"{name}{flag}  failed_share {share:.6f} ({sum(row['failed'])}/{sum(row['attempted'])})")
    for kind in ("end_to_end", "per_layer"):
        for metric, cell in row[kind].items():
            values = cell["values"]
            extra = f"  spread {spread(values) * 100:5.1f}% of {len(values)}" if len(values) > 1 else ""
            print(f"  {metric:38s} {median(values):14.4f} {cell['unit']}{extra}")


def compare(base_path: Path, new_path: Path) -> int:
    """Per (metric, workload): both medians, their ratio, and the verdict."""
    contract = json.loads(CONTRACT.read_text())
    base = json.loads(base_path.read_text())["workloads"]
    new = json.loads(new_path.read_text())["workloads"]
    bad = 0
    print(f"{'workload':20s} {'metric':18s} {'base':>12s} {'new':>12s} {'unit':8s} "
          f"{'new/base':>8s} {'bound':>5s}  verdict")
    for name in base:
        if name not in new:
            continue
        for spec in contract["end_to_end"]:
            metric = spec["name"]
            a = base[name]["end_to_end"][metric]["values"]
            b = new[name]["end_to_end"][metric]["values"]
            word, ratio = verdict(a, b, spec["better"], spec["bound"])
            bad += word == "regressed"
            print(f"{name:20s} {metric:18s} {median(a):12.4f} {median(b):12.4f} {spec['unit']:8s} "
                  f"{ratio:8.3f} {spec['bound']:5.2f}  {word}")
        fa = sum(base[name]["failed"]) / sum(base[name]["attempted"])
        fb = sum(new[name]["failed"]) / sum(new[name]["attempted"])
        if fb > fa:
            bad += 1
            print(f"{name:20s} failed_share rose from {fa:.6f} to {fb:.6f}  regressed")
    return 1 if bad else 0
