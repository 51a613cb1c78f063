"""The class-bitset engines against the class-index engines they replaced.

`reference_engines` holds the package's earlier `domination` and
`_sample_pairs`, copied verbatim.  Domination must return equal results,
every field included, on every multiset of {2, 3, 5, 7} with k = 2 ... 5,
with its factors in ascending and in descending order (the order decides
which coordinates carry the weight-one classes, and so the search path);
sampling must return equal lists at k <= 8, with same-class pairs on Γ
only.  The counted pair groups the sampler draws from must hold, in order,
the pairs a full pair list groups under each signature.

The ideal member walks must return equal coordinate lists, in order, for
every mask of three small rings and a table ring, and for every ideal of
Z/510510 with at most 20,000 elements.

Radius and diameter from one BFS per class size must equal the min and
max of the per-class eccentricities, and maximality by the lattice
transform must equal the pairwise inclusion scan, at k <= 8.

The one-pass retract check must give the submask walk's report and the
pairwise loop's three `retract.*` records, verdicts and witnesses
included, for the real closure and for faulty closures, at k <= 7.
"""

import math
import random
from itertools import combinations_with_replacement

import pytest

import reference_engines
from zdgraph import (
    AG,
    GAMMA,
    NoAnnihilatingIdeals,
    PrimeFactors,
    SquarefreeModulus,
    build_ag,
    build_gamma,
    build_ring,
    class_eccentricity,
    diameter,
    domination,
    radius,
    retract_check,
    zn_tables,
)
from zdgraph import spectrum, verify
from zdgraph.graphs import _eccentricities
from zdgraph.pairs import PairGroup, pair_groups
from zdgraph.rings import Ideal, elements_of_ideal
from zdgraph.spectrum import maximal_annihilating
from zdgraph.verify import Verdict, _sample_pairs

MULTISETS = [qs for k in range(2, 6) for qs in combinations_with_replacement((2, 3, 5, 7), k)]


def test_multisets_give_484_cases():
    assert len(MULTISETS) * 2 * 2 == 484


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_domination_matches_index_engine(k):
    for qs in sorted({ms[::step] for ms in MULTISETS if len(ms) == k for step in (1, -1)}):
        ring = build_ring(PrimeFactors(qs))
        for G in (build_gamma(ring), build_ag(ring)):
            for total in (False, True):
                assert domination(G, total) == reference_engines.domination(G, total), (qs, G.kind, total)


# `random.sample` copies a population of at most 21 items below cap 6, 85 at
# caps 6-21, 277 at 22-85 and 1045 at 86-341, and draws from a larger one
# through a set.  At k = 5 and 6 (groups of 5 to 180 pairs) caps 7, 22 and 90
# reach both branches at the larger sizes, and cap 90 takes most groups whole.
WIDE_CAPS = (*range(1, 7), 7, 22, 90)

# (factors, seeds, caps): the full grid up to k = 6, a thinner one at k = 7 and 8
SAMPLING_PLAN = (
    ((2, 3), (0, 1, 7), range(1, 7)),
    ((3, 3), (0, 1, 7), range(1, 7)),
    ((2, 2, 3), (0, 1, 7), range(1, 7)),
    ((2, 2, 2, 2), (0, 1, 7), range(1, 7)),
    ((3, 3, 5, 5), (0, 1, 7), range(1, 7)),
    ((2, 3, 5, 7, 11), (0, 1, 7), WIDE_CAPS),
    ((2, 2, 3, 3, 5, 5), (0, 1, 7), WIDE_CAPS),
    ((2, 3, 5, 7, 11, 13, 17), (0, 1), (1, 3, 6)),
    ((2, 2, 3, 3, 5, 5, 7, 7), (0, 7), (1, 6)),
)


@pytest.mark.parametrize(
    "qs, seeds, caps", SAMPLING_PLAN, ids=["x".join(map(str, qs)) for qs, _, _ in SAMPLING_PLAN]
)
def test_sampling_matches_pair_list_engine(qs, seeds, caps):
    ring = build_ring(PrimeFactors(qs))
    for G in (build_gamma(ring), build_ag(ring)):
        for seed in seeds:
            for cap in caps:
                suite = f"{G.kind}.check"
                expected = reference_engines._sample_pairs(G, seed, suite, cap, G.kind == "gamma")
                assert _sample_pairs(G, seed, suite, cap) == expected, (G.kind, seed, cap)


def _pair_list_groups(G):
    """Signature -> mask pairs, by listing every class pair."""
    full = G.full_mask
    groups = {}
    for mi, w in zip(G.classes, G.weights):
        if w >= 2:
            n = mi.bit_count()
            groups.setdefault((n, n, n, False, True), []).append((mi, mi))
        for mj in range(mi + 1, full):
            a, b = (mi, mj) if mi.bit_count() <= mj.bit_count() else (mj, mi)
            sig = (a.bit_count(), b.bit_count(), (a & b).bit_count(), a | b == full, False)
            groups.setdefault(sig, []).append((a, b))
    return groups


COUNTED_RINGS = (
    (2, 3),
    (2, 2),
    (3, 3, 5),
    (2, 2, 3, 3),
    (2, 3, 5, 7, 11),
    (2, 2, 3, 3, 5, 5, 7),
    (2, 3, 5, 7, 11, 13, 17, 19),
)


@pytest.mark.parametrize("qs", COUNTED_RINGS, ids=["x".join(map(str, qs)) for qs in COUNTED_RINGS])
def test_counted_groups_hold_the_pair_list(qs):
    ring = build_ring(PrimeFactors(qs))
    for G in (build_gamma(ring), build_ag(ring)):
        expected = _pair_list_groups(G)
        got = verify._pair_population(G)
        assert {sig: len(pairs) for sig, pairs in got.items()} == {s: len(p) for s, p in expected.items()}
        assert {sig: list(pairs) for sig, pairs in got.items()} == expected, G.kind
    # the groups above now hold every item in their memo; a fresh group
    # unranks each item once, last index first, and must agree with them
    for sig, group in pair_groups(ring.k):
        n = len(group)
        fresh = PairGroup(ring.k, group._sides)
        assert [fresh[j] for j in reversed(range(n))] == list(group)[::-1], sig
        assert group[-1] == fresh[-1] == group[n - 1]
        for j in (n, -n - 1):
            with pytest.raises(IndexError):
                group[j]


def _assert_walks_match(ring, mask):
    got = [e.coords for e in elements_of_ideal(ring, Ideal(mask))]
    expected = [e.coords for e in reference_engines.elements_of_ideal(ring, Ideal(mask))]
    assert got == expected, mask


@pytest.mark.parametrize(
    "spec",
    [PrimeFactors((2, 3, 5, 7)), PrimeFactors((3, 3, 5)), SquarefreeModulus(210), zn_tables(210)],
    ids=["F2xF3xF5xF7", "F3xF3xF5", "Z210", "table210"],
)
def test_element_walks_match_odometer_walks(spec):
    ring = build_ring(spec)
    for mask in range(1 << ring.k):
        _assert_walks_match(ring, mask)


def test_element_walks_match_on_small_ideals_of_z510510():
    ring = build_ring(SquarefreeModulus(510510))
    small = [m for m in range(1 << ring.k) if math.prod(q for i, q in enumerate(ring.qs) if m >> i & 1) <= 20_000]
    assert len(small) == 114
    for mask in small:
        _assert_walks_match(ring, mask)


# Repeated primes, and a factor 2 first or last: the weight-one singleton
# class of F2 x F3 is mask 0b01, that of F3 x F2 is mask 0b10.
ORBIT_RINGS = (
    (2, 3),
    (3, 2),
    (2, 2),
    (3, 3),
    (2, 2, 3),
    (3, 2, 2),
    (2, 2, 3, 3, 5),
    (5, 3, 3, 2, 2),
    (2, 3, 5, 7),
    (2, 2, 2, 2, 2, 2),
    (3, 5, 7, 11, 13, 2, 2),
    (2, 3, 5, 7, 11, 13, 17, 19),
    (2, 2, 3, 3, 5, 5, 7, 7),
)


@pytest.mark.parametrize("qs", ORBIT_RINGS, ids=["x".join(map(str, qs)) for qs in ORBIT_RINGS])
def test_orbit_metrics_match_per_class_scan(qs):
    ring = build_ring(PrimeFactors(qs))
    for G in (build_gamma(ring), build_ag(ring)):
        assert radius(G) == reference_engines.radius(G), G.kind
        assert diameter(G) == reference_engines.diameter(G), G.kind
        assert _eccentricities(G) == {class_eccentricity(G, m) for m in G.classes}, G.kind
    assert maximal_annihilating(ring) == reference_engines.maximal_annihilating(ring)


def test_weight_one_singleton_in_either_order():
    # the singleton of the factor 2 is one element, adjacent to every other vertex
    for qs in ((2, 3), (3, 2)):
        G = build_gamma(build_ring(PrimeFactors(qs)))
        assert (radius(G), diameter(G)) == (1, 2)


def test_maximality_of_any_family_matches_inclusion_scan(monkeypatch):
    # the ring's own family is always every proper mask; arbitrary families
    # also exercise members that lie inside others by more than one bit
    rng = random.Random(0)
    ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17)))
    for _ in range(100):
        density = rng.choice((0.02, 0.3, 0.7))
        family = [Ideal(m) for m in range(1 << ring.k) if rng.random() < density]
        for module in (spectrum, reference_engines):
            monkeypatch.setattr(module, "annihilating_ideals", lambda ring, family=family: family)
        if family:
            assert maximal_annihilating(ring) == reference_engines.maximal_annihilating(ring)
        else:
            with pytest.raises(NoAnnihilatingIdeals):
                maximal_annihilating(ring)


def _closure_faults(ring, rng):
    """The real closure, then closures that break the retraction in different ways."""
    full = ring.full_mask
    real = spectrum.sz_closure
    yield "real", real
    for target in (0, full, *(rng.randrange(full + 1) for _ in range(4))):
        src = rng.randrange(1, full)
        yield f"{src}->{target}", lambda r, I, src=src, target=target: Ideal(target) if I.mask == src else real(r, I)
    a, b = rng.sample(range(1, full), 2)
    swap = {a: b, b: a}
    yield f"{a}<->{b}", lambda r, I: Ideal(swap.get(I.mask, I.mask))
    yield "complement", lambda r, I: Ideal(full & ~I.mask)
    yield "zero", lambda r, I: Ideal(0)
    # the top member goes to the whole ring, whose closure is then the zero ideal
    yield "successor", lambda r, I: Ideal((I.mask + 1) % (full + 1))


RETRACT_RINGS = [(2, 3, 5, 7, 11, 13, 17)[:k] for k in range(2, 8)] + [(2, 2, 3, 3, 5)]


@pytest.mark.parametrize("qs", RETRACT_RINGS, ids=["x".join(map(str, qs)) for qs in RETRACT_RINGS])
def test_retract_matches_submask_walk_and_pairwise_loop(qs, monkeypatch):
    ring = build_ring(PrimeFactors(qs))
    biconditional = set()
    for name, closure in _closure_faults(ring, random.Random(len(qs))):
        for module in (spectrum, reference_engines):
            monkeypatch.setattr(module, "sz_closure", closure)
        new, old = retract_check(ring), reference_engines.retract_check(ring)
        fields = ("is_identity", "preserves_adjacency", "image_is_fixed", "failures")
        assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields], name
        records, expected = [], []
        verify._suite_retract(ring, None, None, 0, 1, records)
        reference_engines._suite_retract(ring, None, None, 0, 1, expected)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in expected], name
        biconditional.add(records[2].verdict)
    assert biconditional == {Verdict.CONFIRMED, Verdict.VIOLATED}
