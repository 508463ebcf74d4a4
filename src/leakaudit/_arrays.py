"""Array helpers that the text stages and the forest share.

``_BATCH`` bounds the text stages' batched passes: the keyword scan's
(token, node) pairs and the duplicate scan's verification and
contamination passes each hold at most this many array entries at once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

_BATCH = 1 << 16  # array entries one batched pass holds at most


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the pairs (s, c)."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values), which on large arrays is much slower than a sort."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def batches(weights, budget: int | None = None) -> Iterable[tuple[int, int]]:
    """Cut positions into runs (lo, hi) whose weights sum to at most
    ``budget`` (_BATCH, read at each call, by default); a single heavier
    position runs alone. This bounds the memory of one pass."""
    budget = _BATCH if budget is None else budget
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(weights):
        base = ends[lo - 1] if lo else 0
        hi = max(int(np.searchsorted(ends, base + budget, side="right")), lo + 1)
        yield lo, hi
        lo = hi
