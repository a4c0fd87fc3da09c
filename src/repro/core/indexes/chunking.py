"""Chunk-boundary strategies for the Chunk method (§4.3.2).

The Chunk method partitions the document collection into chunks by *original*
score: documents in higher chunks had higher scores at build time.  The paper
experimented with equal-sized and exponentially growing/shrinking chunks and
settled on score-ratio boundaries — adjacent chunks' lowest scores differ by a
constant factor (the *chunk ratio*), with a minimum number of documents per
chunk to survive very skewed score distributions.

All strategies produce a :class:`ChunkMap`, which assigns a chunk id to any
score (including scores produced by later updates) and exposes the chunk lower
bounds the query algorithm's stopping rule needs.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import InvertedIndexError


@dataclass(frozen=True)
class ChunkMap:
    """Assignment of scores to chunk ids.

    Chunk ids are 1-based and increase with score: chunk ``i`` covers scores in
    ``[lower_bounds[i-1], lower_bounds[i])`` and the top chunk is unbounded
    above.  ``lower_bounds[0]`` is always 0.0 so that every non-negative score
    (including scores that later decrease) maps to a chunk.
    """

    lower_bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.lower_bounds:
            raise InvertedIndexError("a chunk map needs at least one chunk")
        if self.lower_bounds[0] != 0.0:
            raise InvertedIndexError("the first chunk's lower bound must be 0.0")
        if list(self.lower_bounds) != sorted(set(self.lower_bounds)):
            raise InvertedIndexError("chunk lower bounds must be strictly increasing")

    @property
    def num_chunks(self) -> int:
        """Number of chunks."""
        return len(self.lower_bounds)

    def chunk_of(self, score: float) -> int:
        """Chunk id (1-based) of a score."""
        if score < 0:
            raise InvertedIndexError(f"scores must be non-negative, got {score}")
        return bisect.bisect_right(self.lower_bounds, score)

    def lower_bound(self, chunk_id: int) -> float:
        """Lowest score belonging to ``chunk_id``.

        For chunk ids above the top chunk the bound is ``+inf`` — used by the
        query stopping rule, which can never terminate at the very top of the
        collection because scores there are unbounded.
        """
        if chunk_id < 1:
            raise InvertedIndexError(f"chunk ids are 1-based, got {chunk_id}")
        if chunk_id > self.num_chunks:
            return math.inf
        return self.lower_bounds[chunk_id - 1]

    def chunk_sizes(self, scores: Sequence[float]) -> dict[int, int]:
        """Histogram of chunk occupancy for a score population (diagnostics)."""
        sizes: dict[int, int] = {}
        for score in scores:
            chunk = self.chunk_of(score)
            sizes[chunk] = sizes.get(chunk, 0) + 1
        return sizes


def ratio_chunks(scores: Sequence[float], ratio: float,
                 min_chunk_size: int = 100) -> ChunkMap:
    """The paper's recommended strategy: geometric score boundaries.

    Boundaries are placed so that the lowest score of chunk ``i+1`` is ``ratio``
    times the lowest score of chunk ``i``, starting from the smallest positive
    score in the collection; chunks holding fewer than ``min_chunk_size``
    documents are merged into the chunk below.

    Parameters
    ----------
    scores:
        The original (build-time) document scores.
    ratio:
        Chunk ratio (> 1).  Larger ratios mean fewer, larger chunks — cheaper
        updates and more expensive queries (Table 2).
    min_chunk_size:
        Minimum number of documents per chunk (the paper uses 100).
    """
    if ratio <= 1.0:
        raise InvertedIndexError(f"chunk ratio must be greater than 1, got {ratio}")
    if min_chunk_size < 1:
        raise InvertedIndexError(f"min_chunk_size must be positive, got {min_chunk_size}")
    if not scores:
        return ChunkMap(lower_bounds=(0.0,))
    positive = sorted(score for score in scores if score > 0)
    if not positive:
        return ChunkMap(lower_bounds=(0.0,))
    maximum = positive[-1]
    base = positive[0]
    boundaries = [0.0]
    boundary = base * ratio
    while boundary <= maximum:
        boundaries.append(boundary)
        next_boundary = boundary * ratio
        if next_boundary <= boundary:
            # Float rounding can stall the geometric progression (a subnormal
            # base times a small ratio rounds back to itself); without this
            # guard the loop would never terminate.
            break
        boundary = next_boundary
    return _enforce_min_size(boundaries, sorted(scores), min_chunk_size)


def equal_count_chunks(scores: Sequence[float], num_chunks: int) -> ChunkMap:
    """Ablation strategy: chunks with (approximately) equal document counts."""
    if num_chunks < 1:
        raise InvertedIndexError(f"num_chunks must be positive, got {num_chunks}")
    ordered = sorted(scores)
    if not ordered or num_chunks == 1:
        return ChunkMap(lower_bounds=(0.0,))
    boundaries = [0.0]
    step = len(ordered) / num_chunks
    for index in range(1, num_chunks):
        boundary = ordered[min(int(index * step), len(ordered) - 1)]
        if boundary > boundaries[-1]:
            boundaries.append(boundary)
    return ChunkMap(lower_bounds=tuple(boundaries))


def exponential_count_chunks(scores: Sequence[float], num_chunks: int,
                             growth: float = 2.0) -> ChunkMap:
    """Ablation strategy: chunk document counts growing geometrically downwards.

    The top chunk is the smallest (so queries over the best documents touch few
    postings) and each lower chunk holds ``growth`` times more documents.
    """
    if num_chunks < 1:
        raise InvertedIndexError(f"num_chunks must be positive, got {num_chunks}")
    if growth <= 0:
        raise InvertedIndexError(f"growth must be positive, got {growth}")
    ordered = sorted(scores)
    if not ordered or num_chunks == 1:
        return ChunkMap(lower_bounds=(0.0,))
    # weights[0] belongs to the bottom chunk and must be the largest so that
    # chunk sizes shrink towards the top of the score range.
    weights = [growth ** (num_chunks - 1 - index) for index in range(num_chunks)]
    total_weight = sum(weights)
    counts = [max(1, round(len(ordered) * weight / total_weight)) for weight in weights]
    boundaries = [0.0]
    position = 0
    # counts[0] is the bottom (largest) chunk; walk from the bottom upwards.
    for count in counts[:-1]:
        position += count
        if position >= len(ordered):
            break
        boundary = ordered[position]
        if boundary > boundaries[-1]:
            boundaries.append(boundary)
    return ChunkMap(lower_bounds=tuple(boundaries))


def _enforce_min_size(boundaries: list[float], ordered_scores: list[float],
                      min_chunk_size: int) -> ChunkMap:
    """Drop boundaries until every chunk holds at least ``min_chunk_size`` docs.

    Underfull chunks are merged downwards (their lower boundary is removed),
    which matches the paper's intent of avoiding tiny chunks under skew.  One
    sweep from the top chunk down does it, counting by bisection over the
    sorted (non-negative) scores: an underfull chunk's documents are carried
    into the chunk below.  The bottom chunk's lower bound (0.0) can never be
    removed, so an underfull bottom chunk merges upwards instead, into the
    lowest kept chunk, which is full.
    """
    upper = len(ordered_scores)  # scores below the upper end of the current chunk
    kept: list[float] = []  # kept lower bounds, highest first
    for bound in reversed(boundaries[1:]):
        lower = bisect.bisect_left(ordered_scores, bound)
        if upper - lower >= min_chunk_size:
            kept.append(bound)
            upper = lower
    if kept and upper < min_chunk_size:
        kept.pop()
    return ChunkMap(lower_bounds=(boundaries[0], *reversed(kept)))
