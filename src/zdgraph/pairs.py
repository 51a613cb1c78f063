"""Class pairs grouped by signature, counted and unranked instead of listed.

Over k coordinates the classes are the masks 1 .. 2^k - 2.  A pair of
distinct classes (mi, mj), mi < mj, has the signature (|a|, |b|, |a & b|,
covering, False), where (a, b) is the pair ordered by size, the smaller
mask first on a tie, and covering means a | b is the full mask.  The
signatures number O(k^3), and each one's pairs are a `PairGroup`: a
sequence whose length is a closed form and whose items come in ascending
(mi, mj) order, the order of a list of all ~2^(2k-1) pairs.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence

_NOTHING = (0,) * 6


class PairGroup(Sequence):
    """The class pairs (mi, mj), mi < mj, of one signature over k coordinates.

    A side fixes (|mi|, |mj|, |mi & mj|); a signature with |a| < |b| has two
    sides, one for each of mi and mj being the smaller class.  A pair is
    returned as (a, b) with |a| <= |b|, the smaller mask first on a tie.

    For a fixed mi, split the mj > mi by the highest bit h where they
    differ: mi has 0 there and mj has 1, above h they agree, and below h mj
    takes x of mi's ones and y of its zeros.  With `a` ones of mi above h,
    that is g(h, a) = C(|mi| - a, x) * C(h - |mi| + a, y) choices, x = c - a
    and y = |mj| - 1 - c.  Larger h gives larger mj.  Summing g over the
    masks below a prefix of mi is one table per side, so the j-th pair is
    found by a digit walk over mi's bits, then over h, then over the bits
    of mj below h.
    """

    def __init__(self, k: int, sides: tuple[tuple[int, int, int], ...]):
        self._k = k
        self._sides = sides
        self._len = sum(_side_size(k, *side) for side in sides)
        self._rows: list | None = None
        # index -> pair, for the later draws of every run at this k
        self._items: dict[int, tuple[int, int]] = {}

    def __len__(self) -> int:
        return self._len

    def _walk_rows(self) -> list:
        """rows[h][a] = (z0, b0, g) for each side, for mi's bit h with `a` ones above it.

        Taking bit 0 at h, with acc pairs per mask from the zero bits above,
        leaves acc * z0 + b0 pairs below that prefix of mi; g is the pairs
        with their highest differing bit at h.  A one-sided group's second
        side is zeros.
        """
        if self._rows is None:
            k = self._k
            comb = math.comb
            rows = [[() for _ in range(k + 1)] for _ in range(k)]
            for pi, pj, c in self._sides:
                y = pj - 1 - c
                below = [0] * (k + 2)  # the pairs from the zero bits at h - 1 .. 0, by a
                for h in range(k):
                    here = [0] * (k + 2)
                    for a in range(k - h):
                        r = pi - a  # ones of mi at h .. 0
                        z0 = comb(h, r) if 0 <= r <= h else 0
                        g = comb(r, c - a) * comb(h - r, y) if z0 and a <= c else 0
                        b0 = g * z0 + below[a]
                        rows[h][a] += (z0, b0, g)
                        here[a] = b0 + (below[a + 1] if r >= 1 else 0)
                    below = here
            # most entries are zero, and share one tuple
            pad = (0, 0, 0) * (2 - len(self._sides))
            self._rows = [[row + pad if any(row) else _NOTHING for row in level] for level in rows]
        return self._rows

    def __getitem__(self, index: int) -> tuple[int, int]:
        if index < 0:
            index += self._len
        pair = self._items.get(index)
        if pair is not None:
            return pair
        if not 0 <= index < self._len:
            raise IndexError(index)
        rows = self._walk_rows()
        j = index
        mi = a = acc1 = acc2 = 0
        for h in range(self._k - 1, -1, -1):
            z1, b1, g1, z2, b2, g2 = rows[h][a]
            s0 = acc1 * z1 + b1 + acc2 * z2 + b2
            if j < s0:
                acc1 += g1
                acc2 += g2
            else:
                j -= s0
                mi |= 1 << h
                a += 1
        pair = self._items[index] = self._pair(mi, j)
        return pair

    def _pair(self, mi: int, j: int) -> tuple[int, int]:
        """The j-th pair whose first class is mi."""
        rows = self._rows
        side = 0 if mi.bit_count() == self._sides[0][0] else 1
        pi, pj, c = self._sides[side]
        h = 0
        while True:
            if not mi >> h & 1:
                n = rows[h][(mi >> h).bit_count()][3 * side + 2]
                if j < n:
                    break
                j -= n
            h += 1
        x, y = c - (mi >> h).bit_count(), pj - 1 - c
        mj = (mi >> h | 1) << h
        for b in range(h - 1, -1, -1):
            if not (x or y):
                break
            # the pairs that leave bit b of mj at 0 come first
            ones = (mi & ((1 << b) - 1)).bit_count()
            n = math.comb(ones, x) * math.comb(b - ones, y)
            if j >= n:
                j -= n
                mj |= 1 << b
                if mi >> b & 1:
                    x -= 1
                else:
                    y -= 1
        return (mi, mj) if pi <= pj else (mj, mi)


def _side_size(k: int, pi: int, pj: int, c: int) -> int:
    """The pairs mi < mj with |mi| = pi, |mj| = pj and |mi & mj| = c.

    Choose the c positions in both masks, then the n01 + n10 positions where
    they differ.  mi < mj exactly when the highest of those is in mj only,
    so the other n01 - 1 mj-only positions fall among the remaining
    n01 + n10 - 1.
    """
    n01, n10 = pj - c, pi - c
    return math.comb(k, c) * math.comb(k - c, n01 + n10) * math.comb(n01 + n10 - 1, n01 - 1)


@functools.cache
def pair_groups(k: int) -> tuple[tuple[tuple, PairGroup], ...]:
    """(signature, its class pairs) for each signature over k coordinates.

    A tuple, not a dict, since every caller shares the cached value.
    """
    sides: dict[tuple, list[tuple[int, int, int]]] = {}
    for pi in range(1, k):
        for pj in range(1, k):
            # mj needs a bit outside mi to exceed it, and the four bit kinds
            # (in neither, mj only, mi only, both) share k positions
            for c in range(max(0, pi + pj - k), min(pi, pj - 1) + 1):
                sig = (min(pi, pj), max(pi, pj), c, pi + pj - c == k, False)
                sides.setdefault(sig, []).append((pi, pj, c))
    return tuple((sig, PairGroup(k, tuple(s))) for sig, s in sides.items())
