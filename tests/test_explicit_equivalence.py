"""Cross-checks of the closed-form layer against literal graph searches.

Every metric the package computes from support masks is recomputed here on a
materialized vertex list with plain BFS / scanning, on rings small enough to
afford it.  Any disagreement is a bug in one of the two layers.
"""

import json
import math

import pytest

from zdgraph import (
    PrimeFactors,
    SquarefreeModulus,
    build_ag,
    build_gamma,
    build_ring,
    degree,
    distance,
    domination,
    eccentricity,
    girth_through,
    is_pendant,
    is_triangle_vertex,
    orthogonal,
)
from oracles import (
    ag_from_ideal_products,
    bfs_distance,
    bfs_distances,
    bfs_diameter,
    bfs_eccentricity,
    bfs_radius,
    cycle_through_pair_enumeration,
    cycle_through_pair_flow,
    exhaustive_domination,
    gamma_from_multiplication,
    materialize,
    scan_orthogonal,
    scan_pendant,
    scan_triangle_vertex,
)
from zdgraph.cli import EXIT_OK, main
from zdgraph.graphs import Vertex, diameter, radius

SMALL_MODULI = [6, 10, 15, 30, 42, 70, 105]


@pytest.fixture(scope="module", params=SMALL_MODULI)
def pair(request):
    ring = build_ring(SquarefreeModulus(request.param))
    G = build_gamma(ring)
    return ring, G, materialize(G)


def test_materialize_matches_multiplication_table(pair):
    ring, G, eg = pair
    lit = gamma_from_multiplication(ring)
    assert {v.render() for v in eg.labels} == {v.render() for v in lit.labels}
    by_mask = {lit.labels[i]: i for i in range(lit.n)}
    for i, v in enumerate(eg.labels):
        j = by_mask[v]
        mine = {eg.labels[t].render() for t in eg.adj[i]}
        theirs = {lit.labels[t].render() for t in lit.adj[j]}
        assert mine == theirs


def test_counts(pair):
    _, G, eg = pair
    assert eg.n == G.vertex_count()
    assert eg.edge_count() == G.edge_count()


def test_distances(pair):
    _, G, eg = pair
    for i, u in enumerate(eg.labels):
        row = bfs_distances(eg, i)
        for j, v in enumerate(eg.labels):
            assert distance(G, u, v) == row[j]


def test_eccentricity_radius_diameter(pair):
    _, G, eg = pair
    for i, u in enumerate(eg.labels):
        assert eccentricity(G, u) == bfs_eccentricity(eg, i)
    assert radius(G) == bfs_radius(eg)
    assert diameter(G) == bfs_diameter(eg)


def test_degree_pendant_triangle(pair):
    _, G, eg = pair
    for i, u in enumerate(eg.labels):
        assert degree(G, u) == len(eg.adj[i])
        assert is_pendant(G, u) == scan_pendant(eg, i)
        assert is_triangle_vertex(G, u)[0] == scan_triangle_vertex(eg, i)


def test_orthogonality_sample(pair):
    _, G, eg = pair
    step = max(1, eg.n // 12)
    idx = list(range(0, eg.n, step))
    for i in idx:
        for j in idx:
            if i == j:
                continue
            assert orthogonal(G, eg.labels[i], eg.labels[j]) == scan_orthogonal(eg, i, j)


def test_girth_through_pair_three_ways(pair):
    ring, G, eg = pair
    step = max(1, eg.n // 10)
    idx = list(range(0, eg.n, step))
    for i in idx:
        for j in idx:
            if i >= j:
                continue
            predicted = girth_through(G, eg.labels[i], eg.labels[j]).length
            flow = cycle_through_pair_flow(eg, i, j)
            assert predicted == flow
            if eg.n <= 30:
                enum = cycle_through_pair_enumeration(eg, i, j)
                assert predicted == enum


def test_domination_exhaustive(pair):
    _, G, eg = pair
    if eg.n > 24:
        pytest.skip("exhaustive search capped at 24 vertices")
    for total in (False, True):
        size, _ = exhaustive_domination(eg, total=total)
        assert domination(G, total=total).size == size


@pytest.mark.parametrize("n", [6, 30, 105, 210])
@pytest.mark.parametrize(
    "kind, oracle", [("gamma", gamma_from_multiplication), ("ag", ag_from_ideal_products)]
)
def test_explicit_export_edges_match_ring_arithmetic(capsys, n, kind, oracle):
    assert main(["export", "--zn", str(n), "--graph", kind, "--format", "json", "--explicit"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    render = [Vertex(node["mask"], node["copy"]).render() for node in doc["nodes"]]
    exported = {frozenset((render[i], render[j])) for i, j in doc["edges"]}
    eg = oracle(build_ring(SquarefreeModulus(n)))
    literal = {
        frozenset((eg.labels[i].render(), eg.labels[j].render())) for i in range(eg.n) for j in eg.adj[i]
    }
    assert sorted(render) == sorted(v.render() for v in eg.labels)
    assert len(exported) == len(doc["edges"])
    assert exported == literal


@pytest.mark.parametrize("qs", [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_ideal_graph_equivalence(qs):
    ring = build_ring(PrimeFactors(qs))
    A = build_ag(ring)
    eg = ag_from_ideal_products(ring)
    assert eg.n == A.vertex_count()
    assert eg.edge_count() == A.edge_count()
    for i, u in enumerate(eg.labels):
        assert eccentricity(A, u) == bfs_eccentricity(eg, i)
        assert degree(A, u) == len(eg.adj[i])
        for j, v in enumerate(eg.labels):
            assert distance(A, u, v) == bfs_distance(eg, i, j)
    for total in (False, True):
        assert domination(A, total=total).size == exhaustive_domination(eg, total=total)[0]


def test_girth_infinite_agrees_on_k2():
    ring = build_ring(PrimeFactors((3, 3)))
    G = build_gamma(ring)
    eg = materialize(G)
    for i in range(eg.n):
        for j in range(i + 1, eg.n):
            flow = cycle_through_pair_flow(eg, i, j)
            predicted = girth_through(G, eg.labels[i], eg.labels[j]).length
            assert (math.isinf(flow) and math.isinf(predicted)) or flow == predicted


@pytest.mark.parametrize("qs", [(2, 3, 5), (2, 3, 7)])
def test_girth_every_pair_matches_flow_oracle(qs):
    G = build_gamma(build_ring(PrimeFactors(qs)))
    eg = materialize(G)
    lengths = []
    for i in range(eg.n):
        for j in range(i + 1, eg.n):
            predicted = girth_through(G, eg.labels[i], eg.labels[j]).length
            assert predicted == cycle_through_pair_flow(eg, i, j)
            lengths.append(predicted)
    # a pendant vertex lies on no cycle, so the no-cycle answer is covered too
    assert any(math.isinf(x) for x in lengths)
    assert any(not math.isinf(x) for x in lengths)
