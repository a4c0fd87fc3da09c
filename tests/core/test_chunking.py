"""Tests for chunk-boundary strategies and the ChunkMap."""

import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvertedIndexError
from repro.core.indexes.chunking import (
    ChunkMap,
    _enforce_min_size,
    equal_count_chunks,
    exponential_count_chunks,
    ratio_chunks,
)


class TestChunkMap:
    def test_chunk_assignment_and_bounds(self):
        chunk_map = ChunkMap(lower_bounds=(0.0, 10.0, 100.0))
        assert chunk_map.num_chunks == 3
        assert chunk_map.chunk_of(0.0) == 1
        assert chunk_map.chunk_of(9.99) == 1
        assert chunk_map.chunk_of(10.0) == 2
        assert chunk_map.chunk_of(99.0) == 2
        assert chunk_map.chunk_of(1e9) == 3
        assert chunk_map.lower_bound(1) == 0.0
        assert chunk_map.lower_bound(3) == 100.0
        assert chunk_map.lower_bound(4) == math.inf

    def test_higher_chunks_have_higher_scores(self):
        chunk_map = ChunkMap(lower_bounds=(0.0, 5.0, 50.0, 500.0))
        rng = random.Random(0)
        samples = [rng.uniform(0, 1000) for _ in range(200)]
        for a in samples:
            for b in samples[:20]:
                if chunk_map.chunk_of(a) > chunk_map.chunk_of(b):
                    assert a > b or chunk_map.chunk_of(a) == chunk_map.chunk_of(b)

    def test_invalid_maps_rejected(self):
        with pytest.raises(InvertedIndexError):
            ChunkMap(lower_bounds=())
        with pytest.raises(InvertedIndexError):
            ChunkMap(lower_bounds=(1.0, 2.0))      # must start at 0.0
        with pytest.raises(InvertedIndexError):
            ChunkMap(lower_bounds=(0.0, 5.0, 5.0))  # strictly increasing

    def test_negative_scores_rejected(self):
        chunk_map = ChunkMap(lower_bounds=(0.0,))
        with pytest.raises(InvertedIndexError):
            chunk_map.chunk_of(-1.0)

    def test_chunk_sizes_histogram(self):
        chunk_map = ChunkMap(lower_bounds=(0.0, 10.0))
        sizes = chunk_map.chunk_sizes([1.0, 2.0, 15.0])
        assert sizes == {1: 2, 2: 1}


class TestRatioChunks:
    def test_adjacent_boundaries_follow_the_ratio(self):
        scores = [float(value) for value in range(1, 2000)]
        chunk_map = ratio_chunks(scores, ratio=3.0, min_chunk_size=1)
        bounds = chunk_map.lower_bounds
        for previous, current in zip(bounds[1:], bounds[2:]):
            assert current / previous == pytest.approx(3.0)

    def test_min_chunk_size_merges_small_chunks(self):
        rng = random.Random(1)
        scores = [rng.uniform(0, 100000) ** 2 / 100000 for _ in range(300)]
        chunk_map = ratio_chunks(scores, ratio=1.5, min_chunk_size=40)
        sizes = chunk_map.chunk_sizes(scores)
        assert all(size >= 40 for size in sizes.values())

    def test_degenerate_inputs(self):
        assert ratio_chunks([], ratio=2.0).num_chunks == 1
        assert ratio_chunks([0.0, 0.0], ratio=2.0).num_chunks == 1
        with pytest.raises(InvertedIndexError):
            ratio_chunks([1.0], ratio=1.0)
        with pytest.raises(InvertedIndexError):
            ratio_chunks([1.0], ratio=2.0, min_chunk_size=0)

    def test_subnormal_scores_terminate(self):
        """A subnormal smallest score must not stall the geometric progression.

        ``5e-324 * 1.1`` rounds back to ``5e-324``, which used to spin the
        boundary loop forever; the progression now bails out when a step makes
        no progress and every score still lands in a chunk.
        """
        chunk_map = ratio_chunks([5e-324, 100.0], ratio=1.1, min_chunk_size=1)
        for score in (5e-324, 100.0):
            assert 1 <= chunk_map.chunk_of(score) <= chunk_map.num_chunks

    def test_every_score_is_assigned_to_some_chunk(self):
        rng = random.Random(2)
        scores = [rng.uniform(0, 5000) for _ in range(500)]
        chunk_map = ratio_chunks(scores, ratio=2.5, min_chunk_size=10)
        for score in scores:
            assert 1 <= chunk_map.chunk_of(score) <= chunk_map.num_chunks


class TestOtherStrategies:
    def test_equal_count_chunks_balance_occupancy(self):
        scores = [float(value) for value in range(1, 1001)]
        chunk_map = equal_count_chunks(scores, num_chunks=5)
        sizes = chunk_map.chunk_sizes(scores)
        assert chunk_map.num_chunks == 5
        assert max(sizes.values()) - min(sizes.values()) <= 2

    def test_equal_count_single_chunk(self):
        assert equal_count_chunks([1.0, 2.0], num_chunks=1).num_chunks == 1
        with pytest.raises(InvertedIndexError):
            equal_count_chunks([1.0], num_chunks=0)

    def test_exponential_chunks_put_fewest_docs_on_top(self):
        scores = [float(value) for value in range(1, 2001)]
        chunk_map = exponential_count_chunks(scores, num_chunks=4, growth=3.0)
        sizes = chunk_map.chunk_sizes(scores)
        assert sizes[chunk_map.num_chunks] < sizes[1]

    def test_exponential_validation(self):
        with pytest.raises(InvertedIndexError):
            exponential_count_chunks([1.0], num_chunks=0)
        with pytest.raises(InvertedIndexError):
            exponential_count_chunks([1.0], num_chunks=2, growth=0.0)


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=300),
    ratio=st.floats(min_value=1.1, max_value=50.0),
    min_size=st.integers(min_value=1, max_value=50),
)
def test_property_ratio_chunks_are_monotone_and_total(scores, ratio, min_size):
    chunk_map = ratio_chunks(scores, ratio=ratio, min_chunk_size=min_size)
    bounds = chunk_map.lower_bounds
    assert list(bounds) == sorted(set(bounds))
    assert bounds[0] == 0.0
    ordered = sorted(scores)
    chunks = [chunk_map.chunk_of(score) for score in ordered]
    assert chunks == sorted(chunks)  # chunk id is monotone in the score


def _enforce_min_size_by_recount(boundaries, ordered_scores, min_chunk_size):
    """The previous ``_enforce_min_size``, kept as the oracle: recount every
    score after each dropped boundary (O(boundaries² × docs))."""
    def occupancy(bounds):
        counts = [0] * len(bounds)
        for score in ordered_scores:
            counts[bisect.bisect_right(bounds, score) - 1] += 1
        return counts

    bounds = list(boundaries)
    while len(bounds) > 1:
        underfull = [index for index, count in enumerate(occupancy(bounds))
                     if count < min_chunk_size]
        if not underfull:
            break
        target = underfull[-1]
        bounds.pop(1 if target == 0 else target)
    return ChunkMap(lower_bounds=tuple(bounds))


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=200),
       extra=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False,
                                exclude_min=True), max_size=40),
       min_size=st.integers(min_value=1, max_value=30))
def test_min_size_sweep_equals_the_recount(scores, extra, min_size):
    """Boundaries drawn from the scores themselves (ties at a bound) and
    from anywhere else, including ranges that hold no score at all."""
    ordered = sorted(scores)
    boundaries = [0.0, *sorted({score for score in [*scores, *extra] if score > 0})]
    assert (_enforce_min_size(boundaries, ordered, min_size)
            == _enforce_min_size_by_recount(boundaries, ordered, min_size))
