"""Rendering helpers for benchmark output files."""

from __future__ import annotations

__all__ = ["experiment_header"]


def experiment_header(exp_id: str, title: str, claim: str) -> str:
    """Uniform banner for each experiment in ``bench_output.txt``."""
    bar = "=" * 78
    return (
        f"\n{bar}\n"
        f"{exp_id}: {title}\n"
        f"claim: {claim}\n"
        f"{bar}"
    )
