"""Tests for links and topology."""

import pytest

from repro.gridsim.network import (
    LOOPBACK_LATENCY,
    Link,
    Topology,
    loopback_link,
)
from repro.gridsim.resources import Processor


class TestLink:
    def test_transfer_time(self):
        lk = Link(latency=0.01, bandwidth=1e6)
        # 0.01 + 500000/1e6 = 0.51
        assert lk.transfer_time(500_000) == pytest.approx(0.51)

    def test_zero_bytes_costs_latency_only(self):
        lk = Link(latency=0.02, bandwidth=1e6)
        assert lk.transfer_time(0) == pytest.approx(0.02)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            Link(0.0, 1e6).transfer_time(-1)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Link(-0.1, 1e6)
        with pytest.raises(ValueError):
            Link(0.0, 0.0)

    def test_loopback_is_cheap(self):
        lk = loopback_link()
        assert lk.transfer_time(1e6) < 1e-5


class TestTopology:
    def _procs(self):
        return (
            Processor(0, site="edinburgh"),
            Processor(1, site="edinburgh"),
            Processor(2, site="glasgow"),
        )

    def test_same_processor_gets_loopback(self):
        a, _, _ = self._procs()
        topo = Topology()
        assert topo.link(a, a).latency == LOOPBACK_LATENCY

    def test_same_site_gets_intra(self):
        a, b, _ = self._procs()
        topo = Topology(intra_site=Link(1e-4, 1e8), inter_site=Link(0.05, 1e6))
        assert topo.link(a, b).latency == pytest.approx(1e-4)

    def test_cross_site_gets_inter(self):
        a, _, c = self._procs()
        topo = Topology(intra_site=Link(1e-4, 1e8), inter_site=Link(0.05, 1e6))
        assert topo.link(a, c).latency == pytest.approx(0.05)

    def test_override_beats_defaults(self):
        a, b, _ = self._procs()
        topo = Topology()
        special = Link(0.123, 777.0)
        topo.set_link(0, 1, special)
        assert topo.link(a, b) is special
        assert topo.link(b, a) is special  # symmetric by default

    def test_asymmetric_override(self):
        a, b, _ = self._procs()
        topo = Topology()
        special = Link(0.123, 777.0)
        topo.set_link(0, 1, special, symmetric=False)
        assert topo.link(a, b) is special
        assert topo.link(b, a) is not special
