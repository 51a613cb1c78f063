"""The sampler's counted pair groups where a full pair list is out of reach.

`test_reference_engines.py` checks every group item by item against a pair
list at k <= 8.  Here the group sizes must add up to every class pair at
k = 12 ... 16, and sampled items must keep their signature and be written
in its order: the smaller class first, the smaller mask first on a tie.
A fixed key must draw the same pairs on every supported Python.
"""

import hashlib
import math
import random

import pytest

from zdgraph import PrimeFactors, SquarefreeModulus, build_ag, build_gamma, build_ring
from zdgraph.pairs import pair_groups
from zdgraph.verify import _pair_population, _sample_pairs


# the sampler's pair groups are counted, not listed, so their sizes can be
# checked where a pair list would hold up to C(2^16 - 2, 2) ~ 2^31 pairs
LARGE_K_FACTORS = (2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@pytest.mark.parametrize("k", range(12, 17))
def test_pair_group_sizes_add_up_without_a_pair_list(k):
    qs = LARGE_K_FACTORS[-k:]
    ring = build_ring(PrimeFactors(qs))
    pairs = math.comb(2**k - 2, 2)
    # a class has one vertex in Γ exactly when it lies inside the F2 coordinates
    twos = qs.count(2)
    same_class = (2**k - 2) - (2**twos - 1)
    assert sum(len(group) for _, group in pair_groups(k)) == pairs
    for G, expected in ((build_gamma(ring), pairs + same_class), (build_ag(ring), pairs)):
        assert sum(map(len, _pair_population(G).values())) == expected


def test_unranked_pairs_keep_signature_and_order_at_k14():
    k, full = 14, (1 << 14) - 1
    for sig, group in pair_groups(k):
        n = len(group)
        picks = sorted({0, n - 1, *random.Random(repr(sig)).sample(range(n), min(n, 4))})
        got = [group[j] for j in picks]
        assert len(set(got)) == len(picks), sig
        for a, b in got:
            assert (a.bit_count(), b.bit_count(), (a & b).bit_count(), a | b == full, False) == sig
            assert 0 < a < full and 0 < b < full
            if a.bit_count() == b.bit_count():
                assert a < b


# sha256 of the "<a> <b>\n" mask lines of the 294 pairs that girth's 𝔸𝔾 suite draws on Z/510510
# at seed 0: `random.Random(key).sample` and the unrank together decide them
K7_AG_DRAW_SHA256 = "84bfd66a71dbb7b470977723cf8febf454ca911ef14907c458bb98c81a6f6452"


def test_fixed_key_draw_is_pinned():
    drawn = _sample_pairs(build_ag(build_ring(SquarefreeModulus(510510))), 0, "girth.ag", 6)
    masks = [(u.mask, v.mask) for u, v in drawn]
    assert len(masks) == 294
    # the first signature, two singletons, holds C(7, 2) = 21 pairs, of which 6 are drawn
    assert masks[:6] == [(1, 4), (2, 16), (2, 32), (4, 8), (4, 32), (16, 64)]
    listing = "".join(f"{a} {b}\n" for a, b in masks)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == K7_AG_DRAW_SHA256
