"""Tests for the GridSystem façade."""

import pytest

from repro.gridsim.grid import GridSystem
from repro.gridsim.load import ConstantLoad
from repro.gridsim.resources import Processor


def make_grid():
    return GridSystem(
        [
            Processor(0, speed=1.0),
            Processor(1, speed=2.0, load=ConstantLoad(0.5)),
            Processor(2, speed=4.0),
        ]
    )


class TestConstruction:
    def test_requires_processors(self):
        with pytest.raises(ValueError):
            GridSystem([])

    def test_duplicate_pids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            GridSystem([Processor(0), Processor(0)])

    def test_accessors(self):
        g = make_grid()
        assert len(g) == 3
        assert g.pids == [0, 1, 2]
        assert 2 in g and 5 not in g
        assert g.processor(1).speed == 2.0

    def test_missing_pid_raises_keyerror(self):
        with pytest.raises(KeyError, match="no processor"):
            make_grid().processor(9)


class TestSnapshot:
    def test_effective_speed_combines_speed_and_load(self):
        snap = make_grid().snapshot(0.0)
        assert snap.effective_speed[0] == pytest.approx(1.0)
        assert snap.effective_speed[1] == pytest.approx(1.0)  # 2.0 * 0.5
        assert snap.effective_speed[2] == pytest.approx(4.0)

    def test_all_pairs_present_by_default(self):
        snap = make_grid().snapshot(0.0)
        assert len(snap.links) == 9

    def test_selected_pairs_only(self):
        snap = make_grid().snapshot(0.0, pairs=[(0, 1)])
        assert list(snap.links) == [(0, 1)]
        lat, bw = snap.links[(0, 1)]
        assert lat > 0 and bw > 0

    def test_loopback_pair_is_fast(self):
        snap = make_grid().snapshot(0.0)
        lat_self, bw_self = snap.links[(1, 1)]
        lat_cross, bw_cross = snap.links[(0, 1)]
        assert lat_self < lat_cross
        assert bw_self > bw_cross


class TestPerturb:
    def test_step_applies_at_time(self):
        g = make_grid()
        g.perturb(2, [(50.0, 0.1)])
        assert g.processor(2).availability(0.0) == pytest.approx(1.0)
        assert g.processor(2).availability(60.0) == pytest.approx(0.1)

    def test_composes_with_existing_load(self):
        g = make_grid()
        g.perturb(1, [(10.0, 0.5)])  # proc 1 already at 0.5 constant
        assert g.processor(1).availability(20.0) == pytest.approx(0.25)

    def test_unknown_pid(self):
        with pytest.raises(KeyError):
            make_grid().perturb(9, [(0.0, 0.5)])
