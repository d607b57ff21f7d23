"""Tests for processors."""

import pytest

from repro.gridsim.load import ConstantLoad, StepLoad
from repro.gridsim.resources import Processor


class TestProcessor:
    def test_defaults_dedicated(self):
        p = Processor(0)
        assert p.availability(0.0) == 1.0
        assert p.effective_speed(100.0) == 1.0

    def test_effective_speed_scales_with_load(self):
        p = Processor(1, speed=4.0, load=ConstantLoad(0.5))
        assert p.effective_speed(0.0) == pytest.approx(2.0)

    def test_effective_speed_under_load_step(self):
        p = Processor(3, speed=1.0, load=StepLoad([(10.0, 0.25)]))
        assert p.effective_speed(5.0) == pytest.approx(1.0)
        assert p.effective_speed(15.0) == pytest.approx(0.25)

    def test_invalid_speed(self):
        with pytest.raises(ValueError):
            Processor(0, speed=0.0)

    def test_set_load(self):
        p = Processor(4)
        p.set_load(ConstantLoad(0.1))
        assert p.availability(0.0) == pytest.approx(0.1)

    def test_cpu_resource_is_exclusive(self):
        p = Processor(5)
        assert p.resource.capacity == 1
