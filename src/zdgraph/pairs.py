"""Class pairs grouped by signature, counted and unranked instead of listed.

A pair of distinct classes over k coordinates has the signature (|a|, |b|,
|a & b|, covering, False): (a, b) is ordered by size, the smaller mask first
on a tie, and covering means a | b is the full mask.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence


def _pick(mask: int, r: int, rank: int) -> int:
    """The r-subset of mask's set bits with colex rank `rank` (Knuth, TAOCP 4A, 7.2.1.3)."""
    chosen, t = 0, mask.bit_count()
    while r:
        top = 1 << mask.bit_length() - 1
        mask ^= top
        t -= 1  # the r-subsets below the t-th set bit come first, and number C(t, r)
        if rank >= math.comb(t, r):
            rank -= math.comb(t, r)
            chosen |= top
            r -= 1
    return chosen


class PairGroup(Sequence):
    """The class pairs (a, b) over k coordinates with |a| = p <= |b| = q and |a & b| = c.

    A pair is three choices: the c shared coordinates, the d = p + q - 2c
    where a and b differ, and a's p - c of those.  When p = q, a takes the
    lowest differing coordinate, so each pair is counted once, and it is
    written (min, max).  Item j is the three colex ranks in mixed radix.
    """

    def __init__(self, k: int, p: int, q: int, c: int):
        self._full, self._c, self._tie = (1 << k) - 1, c, int(p == q)
        self._d, self._rest = p + q - 2 * c, p - c - self._tie  # a's share, less the lowest on a tie
        self._shares = math.comb(self._d - self._tie, self._rest)
        self._diffs = math.comb(k - c, self._d)
        self._len = math.comb(k, c) * self._diffs * self._shares

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j: int) -> tuple[int, int]:
        if not 0 <= j < self._len:
            raise IndexError(j)
        j, r_share = divmod(j, self._shares)
        r_shared, r_diff = divmod(j, self._diffs)
        shared = _pick(self._full, self._c, r_shared)
        diff = _pick(self._full ^ shared, self._d, r_diff)
        low = diff & -diff if self._tie else 0
        only = low | _pick(diff ^ low, self._rest, r_share)
        a, b = shared | only, shared | diff ^ only
        return (min(a, b), max(a, b)) if self._tie else (a, b)


@functools.cache
def pair_groups(k: int) -> tuple[tuple[tuple, PairGroup], ...]:
    """(signature, its pairs) over k coordinates; a tuple of int-only groups, since callers share it."""
    return tuple(
        ((p, q, c, p + q - c == k, False), PairGroup(k, p, q, c))
        for p in range(1, k)
        for q in range(p, k)
        # a | b fits in k coordinates, and equal sizes need a != b
        for c in range(max(0, p + q - k), p + (p < q))
    )
