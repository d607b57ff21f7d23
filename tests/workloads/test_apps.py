"""Tests for realistic application pipelines (run on a thread-backend session)."""

import numpy as np
import pytest

from repro.backend import ThreadBackend
from repro.workloads.apps import (
    image_pipeline,
    kmer_pipeline,
    make_images,
    make_sequences,
)


def run(pipe, inputs, **shape):
    """One bounded stream through a fresh thread-backend session."""
    with ThreadBackend(pipe, **shape).open() as session:
        for item in inputs:
            session.submit(item)
        return session.drain()


class TestImagePipeline:
    def test_end_to_end(self):
        pipe = image_pipeline()
        images = make_images(6, size=48)
        out = run(pipe, images)
        assert len(out) == 6
        for summary in out:
            assert 0.0 < summary["fraction"] < 0.5
            assert summary["edge_pixels"] > 0

    def test_replicated_edges_stage_same_result(self):
        pipe = image_pipeline()
        images = make_images(8, size=32)
        seq = run(pipe, images)
        par = run(pipe, images, replicas=[1, 3, 1, 1])
        assert seq == par

    def test_images_deterministic(self):
        a = make_images(2, size=16, seed=5)
        b = make_images(2, size=16, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_sim_spec_has_relative_weights(self):
        pipe = image_pipeline()
        works = [s.work.mean for s in pipe.stages]
        assert works[1] == max(works)  # edges dominates
        assert works[3] == min(works)  # summarise is trivial


class TestKmerPipeline:
    def test_end_to_end(self):
        pipe = kmer_pipeline()
        seqs = make_sequences(4, length=2000)
        out = run(pipe, seqs)
        assert len(out) == 4
        for rep in out:
            assert 0.3 < rep["gc"] < 0.7  # random DNA ~0.5
            assert rep["top_kmer"] is None or len(rep["top_kmer"]) == 6

    def test_kmer_stage_dominates_sim_costs(self):
        pipe = kmer_pipeline()
        works = [s.work.mean for s in pipe.stages]
        assert works[1] == max(works)


class TestGenerators:
    def test_counts(self):
        assert len(make_sequences(2, length=100)) == 2
        assert len(make_sequences(2, length=100)[0]) == 100

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            make_images(0)
        with pytest.raises(ValueError):
            make_sequences(0)
