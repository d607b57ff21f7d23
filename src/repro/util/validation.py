"""Argument-validation helpers with uniform error messages.

Fail-fast validation at public API boundaries; internal hot paths skip these.
"""

from __future__ import annotations

__all__ = ["check_positive", "check_non_negative", "check_probability"]


def check_positive(value: float, name: str) -> float:
    """Validate ``value > 0`` and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate ``value >= 0`` and return it."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate ``0 <= value <= 1`` and return it."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value
