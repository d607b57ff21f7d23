"""Smoke tests: the shipped examples must run end to end.

Each example is executed as a subprocess (as a user would run it) with a
generous timeout; assertions check the banner output that each example is
documented to produce.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, timeout: float = 300.0) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "adaptive advantage" in out
        assert "remap" in out

    def test_mapping_explorer(self):
        out = run_example("mapping_explorer.py")
        assert "best mapping" in out
        assert "(0,1,2)" in out  # balanced fast-link case spreads out

    def test_farm_conversion(self):
        out = run_example("farm_conversion.py")
        assert "replication sweep" in out
        assert "final mapping" in out

    def test_process_pipeline(self):
        out = run_example("process_pipeline.py")
        assert "warm process pools" in out
        assert "final replicas per stage" in out

    def test_async_pipeline(self):
        out = run_example("async_pipeline.py")
        assert "worker coroutines per stage" in out
        assert "final concurrency limits per stage" in out

    def test_distributed_pipeline(self):
        out = run_example("distributed_pipeline.py")
        assert "registered workers" in out
        assert "still ordered" in out
        assert "real links, real failures" in out

    def test_streaming_pipeline(self):
        out = run_example("streaming_pipeline.py")
        assert "results consumed live" in out
        assert "served 2 streams" in out
        assert "adapt while flowing" in out
