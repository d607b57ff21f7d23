"""Tests for benchmark report rendering."""

from repro.reporting.render import experiment_header


class TestExperimentHeader:
    def test_contains_id_title_claim(self):
        h = experiment_header("E1", "my title", "my claim")
        assert "E1: my title" in h
        assert "claim: my claim" in h
        assert h.count("=") > 50  # banner bars
