"""The sampler's counted pair groups where a full pair list is out of reach.

`test_reference_engines.py` checks every group item by item against a pair
list at k <= 8.  Here the group sizes must add up to every class pair at
k = 12 ... 16, and sampled items must keep their signature and order.
"""

import math
import random

import pytest

from zdgraph import PrimeFactors, build_ag, build_gamma, build_ring
from zdgraph.pairs import pair_groups
from zdgraph.verify import _pair_population


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
    for G, same, expected in (
        (build_gamma(ring), True, pairs + same_class),
        (build_gamma(ring), False, pairs),
        (build_ag(ring), True, pairs),
    ):
        assert sum(map(len, _pair_population(G, same).values())) == expected


def test_unranked_pairs_keep_signature_and_order_at_k14():
    k, full = 14, (1 << 14) - 1
    for sig, group in pair_groups(k):
        n = len(group)
        picks = sorted({0, n - 1, *random.Random(repr(sig)).sample(range(n), min(n, 4))})
        got = [group[j] for j in picks]
        for a, b in got:
            assert (a.bit_count(), b.bit_count(), (a & b).bit_count(), a | b == full, False) == sig
            assert 0 < a < full and 0 < b < full and a != b
        # ascending first class, then ascending second class
        ordered = [(min(a, b), max(a, b)) for a, b in got]
        assert ordered == sorted(set(ordered)), sig
    singletons = dict(pair_groups(k))[(1, 1, 0, False, False)]
    assert (singletons[0], singletons[-1]) == ((1, 2), (1 << 12, 1 << 13))
