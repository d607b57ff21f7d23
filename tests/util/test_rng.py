"""Tests for deterministic RNG stream derivation."""

import numpy as np

from repro.util.rng import derive_rng, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(1, k) for k in ("load", "cost", "noise", "arrival")}
        assert len(seeds) == 4

    def test_distinct_base_seeds(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_key_path_not_concatenation(self):
        # ("ab", "c") must differ from ("a", "bc"): keys are delimited.
        assert derive_seed(7, "ab", "c") != derive_seed(7, "a", "bc")

    def test_result_fits_64_bits(self):
        s = derive_seed(123456789, "component")
        assert 0 <= s < 2**64


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(5, "load", "proc0").random(10)
        b = derive_rng(5, "load", "proc0").random(10)
        assert np.array_equal(a, b)

    def test_different_path_different_stream(self):
        a = derive_rng(5, "load", "proc0").random(10)
        b = derive_rng(5, "load", "proc1").random(10)
        assert not np.array_equal(a, b)
