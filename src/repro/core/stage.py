"""Stage definitions.

A :class:`StageSpec` describes one pipeline stage from the pattern's point of
view: how much *work* an item costs (a :class:`WorkModel`, sampled per item
in simulation), how many bytes it emits downstream, whether it is stateless
(and therefore replicable), how big its migratable state is, and — for the
local thread runtime — the actual Python callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.model.throughput import StageCost
from repro.util.validation import check_non_negative

__all__ = ["WorkModel", "FixedWork", "StageSpec"]


class WorkModel:
    """Per-item work distribution (work units; 1 unit = 1 s at speed 1).

    Implementations must be cheap to sample and expose their mean, which the
    analytic model and the initial mapping heuristics use.
    """

    @property
    def mean(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> float:
        """Draw the work of one item."""
        raise NotImplementedError


class FixedWork(WorkModel):
    """Deterministic work: every item costs exactly ``work`` units."""

    def __init__(self, work: float) -> None:
        check_non_negative(work, "work")
        self._work = float(work)

    @property
    def mean(self) -> float:
        return self._work

    def sample(self, rng: np.random.Generator) -> float:
        return self._work

    def __repr__(self) -> str:
        return f"FixedWork({self._work})"


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage.

    Parameters
    ----------
    name:
        Stage label used in traces and reports.
    work:
        A :class:`WorkModel`, or a plain float meaning :class:`FixedWork`.
    out_bytes:
        Bytes this stage sends downstream per item.
    state_bytes:
        Size of the stage's migratable state (0 for stateless stages).
    replicable:
        Stateless stages may be replicated into an embedded farm; stateful
        stages (``replicable=False``) are only ever re-homed whole, and are
        the only ones the executors feed in input order (see ``ordered``).
    fn:
        Optional Python callable ``item -> item`` for the local thread
        runtime; ignored by the simulator.
    """

    name: str
    work: WorkModel = FixedWork(0.1)
    out_bytes: float = 0.0
    state_bytes: float = 0.0
    replicable: bool = True
    fn: Callable[[Any], Any] | None = None

    def __post_init__(self) -> None:
        if isinstance(self.work, (int, float)):
            object.__setattr__(self, "work", FixedWork(float(self.work)))
        if not isinstance(self.work, WorkModel):
            raise TypeError(f"work must be a WorkModel or float, got {type(self.work)!r}")
        check_non_negative(self.out_bytes, "out_bytes")
        check_non_negative(self.state_bytes, "state_bytes")

    @property
    def ordered(self) -> bool:
        """True when the stage must *start* items in input order.

        Stateless stages commute, so only a stateful (``replicable=False``)
        stage needs in-order arrival; the executors restore order in front
        of such a stage and once at egress, nowhere else.
        """
        return not self.replicable

    def cost(self, measured_work: float | None = None) -> StageCost:
        """Model-facing cost record; ``measured_work`` overrides the prior."""
        work = self.work.mean if measured_work is None else measured_work
        return StageCost(
            work=work,
            out_bytes=self.out_bytes,
            replicable=self.replicable,
            state_bytes=self.state_bytes,
        )
