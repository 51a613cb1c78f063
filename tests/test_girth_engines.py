"""The lattice girth engine against the min-cost-flow engine it replaced.

`flow_girth.girth_through` is the package's earlier engine, kept verbatim:
one min-cost-flow solve per pair on a class network built for that pair.
Both must give the same length for every pair in PLAN, which covers
k = 5 ... 8, both graphs, repeated primes and same-class pairs.
"""

import random

import pytest

from flow_girth import girth_through as flow_girth_through
from zdgraph import AG, GAMMA, PrimeFactors, Vertex, build_ag, build_gamma, build_ring, girth_through

# (factors, graph, pair limit): every pair when there are at most `limit`,
# else a seeded sample of `limit` of them
PLAN = (
    ((2, 2, 3, 3, 5), GAMMA, 500),
    ((2, 3, 5, 7, 11), GAMMA, 500),
    ((2, 2, 2, 3, 3), GAMMA, 500),
    ((3, 3, 5, 5, 7), GAMMA, 500),
    ((2, 2, 2, 2, 3), GAMMA, 500),
    ((2, 3, 3, 5, 5), GAMMA, 500),
    ((2, 2, 3, 5, 7), GAMMA, 500),
    ((3, 5, 7, 11, 13), GAMMA, 500),
    ((2, 2, 2, 5, 5), GAMMA, 500),
    ((3, 3, 3, 3, 3), GAMMA, 500),
    ((2, 2, 5, 7, 7), GAMMA, 500),
    ((2, 3, 3, 3, 7), GAMMA, 500),
    ((2, 2, 3, 3, 5), AG, 500),
    ((2, 2, 3, 3, 5, 5), GAMMA, 1000),
    ((2, 3, 5, 7, 11, 13), GAMMA, 1000),
    ((2, 2, 2, 3, 3, 3), GAMMA, 500),
    ((2, 3, 5, 7, 11, 13), AG, 1300),
    ((2, 2, 3, 3, 5, 5, 7), GAMMA, 250),
    ((2, 3, 5, 7, 11, 13, 17), AG, 250),
    ((2, 3, 5, 7, 11, 13, 17, 19), GAMMA, 60),
    ((2, 2, 3, 3, 5, 5, 7, 7), GAMMA, 60),
    ((2, 3, 5, 7, 11, 13, 17, 19), AG, 60),
)


def class_pairs(G):
    """Every pair of distinct classes, plus two copies of each class that has them."""
    pairs = []
    for i, a in enumerate(G.classes):
        if G.weight(a) >= 2:
            pairs.append((Vertex(a, 0), Vertex(a, 1)))
        pairs.extend((Vertex(a), Vertex(b)) for b in G.classes[i + 1 :])
    return pairs


def planned_pairs(qs, kind, limit):
    ring = build_ring(PrimeFactors(qs))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    pairs = class_pairs(G)
    if len(pairs) > limit:
        pairs = random.Random(f"{qs}:{kind}").sample(pairs, limit)
    return G, pairs


def test_plan_covers_ten_thousand_pairs():
    counts = {}
    same_class = 0
    for qs, kind, limit in PLAN:
        _, pairs = planned_pairs(qs, kind, limit)
        counts[len(qs), kind] = counts.get((len(qs), kind), 0) + len(pairs)
        same_class += sum(u.mask == v.mask for u, v in pairs)
    assert sum(counts.values()) >= 10_000
    assert set(counts) == {(k, kind) for k in (5, 6, 7, 8) for kind in (GAMMA, AG)}
    assert same_class >= 100


@pytest.mark.parametrize(
    "qs, kind, limit", PLAN, ids=[f"{kind}-{'x'.join(map(str, qs))}" for qs, kind, _ in PLAN]
)
def test_lengths_match_flow_engine(qs, kind, limit):
    G, pairs = planned_pairs(qs, kind, limit)
    for u, v in pairs:
        assert girth_through(G, u, v).length == flow_girth_through(G, u, v).length, (u, v)
