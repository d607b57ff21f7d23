"""Stochastic per-item work: the log-normal cost model.

:class:`LogNormalWork` implements :class:`~repro.core.stage.WorkModel` and is
parameterised by its **mean** and coefficient of variation, so experiments
can sweep variability (CV) while holding expected load constant — the knob
experiment E8 turns.  Fixed work needs no model: a stage's ``work`` may be a
plain number.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.stage import WorkModel
from repro.util.validation import check_positive

__all__ = ["LogNormalWork"]


class LogNormalWork(WorkModel):
    """Log-normal work with chosen mean and coefficient of variation.

    ``cv`` sweeps burstiness smoothly: 0.1 is near-deterministic, 2.0 is
    heavily skewed.
    """

    def __init__(self, mean: float, cv: float = 0.5) -> None:
        check_positive(mean, "mean")
        check_positive(cv, "cv")
        self._mean = float(mean)
        self.cv = float(cv)
        sigma2 = math.log(1.0 + cv * cv)
        self._sigma = math.sqrt(sigma2)
        self._mu = math.log(mean) - sigma2 / 2.0

    @property
    def mean(self) -> float:
        return self._mean

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self._sigma))

    def __repr__(self) -> str:
        return f"LogNormalWork(mean={self._mean}, cv={self.cv})"
