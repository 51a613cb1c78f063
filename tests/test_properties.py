"""Randomized invariants over small rings.

These complement the frozen-value tests: instead of pinning specific
outputs they assert relations that must hold for every ring in scope.
"""

import json
import math
from functools import reduce

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zdgraph import (
    AG,
    GAMMA,
    PrimeFactors,
    SquarefreeModulus,
    Vertex,
    build_ag,
    build_gamma,
    build_ring,
    diameter,
    distance,
    domination,
    eccentricity,
    girth_through,
    is_triangle_vertex,
    orthogonal,
    radius,
    sz_closure,
    vertex_element,
)
from oracles import (
    bfs_distance,
    bfs_eccentricity,
    cycle_through_pair_flow,
    exhaustive_domination,
    materialize,
    scan_orthogonal,
    scan_triangle_vertex,
)
from zdgraph.rings import (
    annihilator_element,
    enumerate_ideals,
    factor_squarefree,
)
from zdgraph.spectrum import cozero_set, zero_set
from zdgraph.tables import (
    decompose_table_ring,
    product_tables,
    table_from_json,
    table_to_json,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

prime_lists = st.lists(st.sampled_from(SMALL_PRIMES), min_size=2, max_size=4)
distinct_prime_sets = st.lists(
    st.sampled_from(SMALL_PRIMES), min_size=2, max_size=4, unique=True
)


def product(xs):
    return reduce(lambda a, b: a * b, xs, 1)


@st.composite
def rings(draw):
    return build_ring(PrimeFactors(tuple(draw(prime_lists))))


def _with_support(ring, mask):
    """The first element with support `mask` in lex order: 1 on the mask, 0 off it."""
    return ring.element(tuple(mask >> i & 1 for i in range(ring.k)))


@st.composite
def ring_and_masks(draw, count=2):
    ring = draw(rings())
    full = (1 << ring.k) - 1
    masks = [draw(st.integers(min_value=1, max_value=full - 1)) for _ in range(count)]
    return (ring, *masks)


@given(ps=distinct_prime_sets)
def test_factorization_roundtrip(ps):
    n = product(ps)
    qs = factor_squarefree(n)
    assert sorted(qs) == sorted(ps)
    assert product(qs) == n


@given(ps=distinct_prime_sets, a=st.integers(0, 10_000), b=st.integers(0, 10_000))
def test_crt_arithmetic_matches_residues(ps, a, b):
    n = product(ps)
    ring = build_ring(SquarefreeModulus(n))
    x, y = ring.from_residue(a % n), ring.from_residue(b % n)
    assert ring.label(ring.mul(x, y)) == str(a * b % n)
    # a product of products, checked against the residue and its coordinates
    got, residue = ring.mul(ring.mul(x, y), x), a * b * a % n
    assert ring.label(got) == str(residue)
    assert got.coords == ring.from_residue(residue).coords


@given(data=ring_and_masks())
def test_support_disjointness_is_zero_product(data):
    ring, mu, mv = data
    x = _with_support(ring, mu)
    y = _with_support(ring, mv)
    assert (ring.mul(x, y) == ring.zero()) == (mu & mv == 0)


@given(data=ring_and_masks(count=1))
def test_double_annihilator_is_identity(data):
    ring, mask = data
    x = _with_support(ring, mask)
    ann = annihilator_element(ring, x)
    assert ann.mask == ((1 << ring.k) - 1) ^ mask
    # Ann(Ann(x)) = (x): annihilate an element that generates Ann(x)
    y = _with_support(ring, ann.mask)
    assert annihilator_element(ring, y).mask == mask


@given(data=ring_and_masks(count=3))
def test_distance_triangle_inequality(data):
    ring, ma, mb, mc = data
    G = build_gamma(ring)
    a, b, c = Vertex(ma), Vertex(mb), Vertex(mc)
    dab = distance(G, a, b)
    dbc = distance(G, b, c)
    dac = distance(G, a, c)
    assert dac <= dab + dbc
    assert dab == distance(G, b, a)


@given(data=ring_and_masks())
def test_girth_symmetry_and_witness(data):
    ring, mu, mv = data
    G = build_gamma(ring)
    if mu == mv:
        if G.weight(mu) < 2:
            return  # lone vertex in its class, no distinct pair to test
        u, v = Vertex(mu, 0), Vertex(mu, 1)
    else:
        u, v = Vertex(mu), Vertex(mv)
    res = girth_through(G, u, v)
    swapped = girth_through(G, v, u)
    assert res.length == swapped.length
    if math.isinf(res.length):
        assert res.cycle is None
        return
    cycle = res.cycle
    assert len(cycle) == int(res.length)
    assert len(set(cycle)) == len(cycle)
    assert u in cycle and v in cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert a.mask & b.mask == 0


@given(ring=rings(), kind=st.sampled_from([GAMMA, AG]))
@settings(max_examples=40)
def test_domination_bounds_and_witness(ring, kind):
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    plain = domination(G)
    tot = domination(G, total=True)
    assert plain.size <= tot.size <= 2 * plain.size
    assert plain.certified and tot.certified
    assert len(plain.witness) == plain.size
    assert len(tot.witness) == tot.size


@given(data=ring_and_masks(count=1))
def test_zero_cozero_partition(data):
    ring, mask = data
    x = _with_support(ring, mask)
    zs, cz = zero_set(ring, x), cozero_set(ring, x)
    assert zs | cz == ring.full_mask
    assert zs & cz == 0
    assert cz == mask


@given(ring=rings())
@settings(max_examples=40)
def test_closure_operator_is_identity(ring):
    for ideal in enumerate_ideals(ring):
        assert sz_closure(ring, ideal) == ideal


@given(ps=st.lists(st.sampled_from((2, 3, 5)), min_size=2, max_size=3))
@settings(max_examples=25)
def test_table_json_roundtrip_and_decompose(ps):
    tables = product_tables(tuple(ps))
    doc = table_to_json(tables)
    back = table_from_json(doc)
    assert back.add == tables.add and back.mul == tables.mul
    ring = decompose_table_ring(back)
    assert sorted(ring.qs) == sorted(ps)
    # a second serialization of the parsed object round trips unchanged
    assert table_to_json(back) == doc


@given(data=ring_and_masks(count=1))
def test_vertex_element_decode_round_trip(data):
    ring, mask = data
    G = build_gamma(ring)
    for copy in range(min(3, G.weight(mask))):
        v = Vertex(mask, copy)
        x = vertex_element(ring, v)
        from zdgraph import gamma_vertex

        assert gamma_vertex(ring, x) == v


# Every graph over at most four of these factors has at most 1104 vertices,
# under the default ZDGRAPH_EXPLICIT_CAP, so the explicit oracle can check it.
@given(
    ps=st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=4),
    kind=st.sampled_from([GAMMA, AG]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_bfs_metrics_match_explicit_oracle(ps, kind, data):
    ring = build_ring(PrimeFactors(tuple(ps)))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    eg = materialize(G)
    ecc = [bfs_eccentricity(eg, i) for i in range(eg.n)]
    assert [eccentricity(G, v) for v in eg.labels] == ecc
    # bfs_radius and bfs_diameter are the min and max of these; reuse them
    assert radius(G) == min(ecc)
    assert diameter(G) == max(ecc)
    i = data.draw(st.integers(0, eg.n - 1))
    j = data.draw(st.integers(0, eg.n - 1))
    assert distance(G, eg.labels[i], eg.labels[j]) == bfs_distance(eg, i, j)


# Up to five factors: the ideal graph has at most 30 vertices, and a
# zero-divisor graph is drawn only when it has at most 1200.
@given(
    ps=st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=5),
    kind=st.sampled_from([GAMMA, AG]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_triangle_vertices_match_explicit_oracle(ps, kind, data):
    ring = build_ring(PrimeFactors(tuple(ps)))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    assume(G.vertex_count() <= 1200)
    eg = materialize(G)
    index = {v: i for i, v in enumerate(eg.labels)}
    for _ in range(4):
        i = data.draw(st.integers(0, eg.n - 1))
        found, partners = is_triangle_vertex(G, eg.labels[i])
        assert found == scan_triangle_vertex(eg, i)
        if found:
            a, b = (index[w] for w in partners)
            assert a in eg.adj[i] and b in eg.adj[i] and b in eg.adj[a]
        else:
            assert partners is None


@given(
    ps=st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=5),
    kind=st.sampled_from([GAMMA, AG]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_orthogonality_matches_explicit_oracle(ps, kind, data):
    ring = build_ring(PrimeFactors(tuple(ps)))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    assume(G.vertex_count() <= 1200)
    eg = materialize(G)
    full = G.full_mask
    for _ in range(4):
        i = data.draw(st.integers(0, eg.n - 1))
        # orthogonal pairs have complementary masks, so draw those often
        complements = [j for j, w in enumerate(eg.labels) if w.mask == full ^ eg.labels[i].mask]
        if data.draw(st.booleans()):
            j = data.draw(st.sampled_from(complements))
        else:
            j = data.draw(st.integers(0, eg.n - 1))
        assert orthogonal(G, eg.labels[i], eg.labels[j]) == scan_orthogonal(eg, i, j)


@given(
    ps=st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=4),
    kind=st.sampled_from([GAMMA, AG]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_girth_matches_explicit_flow_oracle(ps, kind, data):
    ring = build_ring(PrimeFactors(tuple(ps)))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    eg = materialize(G)
    index = {v: i for i, v in enumerate(eg.labels)}
    for _ in range(3):
        i = data.draw(st.integers(0, eg.n - 1))
        copies = [j for j, w in enumerate(eg.labels) if w.mask == eg.labels[i].mask and j != i]
        if copies and data.draw(st.booleans()):
            j = data.draw(st.sampled_from(copies))
        else:
            j = data.draw(st.integers(0, eg.n - 1).filter(lambda j: j != i))
        res = girth_through(G, eg.labels[i], eg.labels[j])
        assert res.length == cycle_through_pair_flow(eg, i, j)
        if math.isinf(res.length):
            assert res.cycle is None
            continue
        cycle = [index[w] for w in res.cycle]
        assert len(cycle) == res.length
        assert len(set(cycle)) == len(cycle)
        assert i in cycle and j in cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert b in eg.adj[a]


@given(
    ps=st.lists(st.sampled_from((2, 3, 5, 7)), min_size=2, max_size=4),
    kind=st.sampled_from([GAMMA, AG]),
    total=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_domination_matches_exhaustive_oracle(ps, kind, total):
    ring = build_ring(PrimeFactors(tuple(ps)))
    G = build_gamma(ring) if kind == GAMMA else build_ag(ring)
    assume(G.vertex_count() <= 24)
    eg = materialize(G)
    res = domination(G, total=total)
    assert res.size == exhaustive_domination(eg, total=total)[0]
    assert len(res.witness) == res.size
    index = {v: i for i, v in enumerate(eg.labels)}
    chosen = {index[v] for v in res.witness}
    for w in range(eg.n):
        assert eg.adj[w] & chosen or (not total and w in chosen)


def test_json_report_render_has_no_floats():
    # infinity must serialize as a string, never as a bare float
    from zdgraph.verify import _render

    assert _render(math.inf) == "Infinite"
    assert _render({1: math.inf}) == {"1": "Infinite"}
    assert json.dumps(_render((math.inf, 3))) == '["Infinite", 3]'
