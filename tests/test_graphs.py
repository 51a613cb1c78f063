import math
import tracemalloc

import pytest

from zdgraph import (
    Disconnected,
    EmptyGraph,
    Ideal,
    PrimeFactors,
    SquarefreeModulus,
    Vertex,
    build_ag,
    build_gamma,
    build_ring,
    class_eccentricity,
    degree,
    diameter,
    distance,
    domination,
    eccentricity,
    gamma_vertex,
    girth_through,
    is_pendant,
    is_triangle_vertex,
    is_triangulated,
    orthogonal,
    radius,
    retract_check,
    sz_closure,
    vertex_element,
    vertex_label,
)
from zdgraph import graphs
from zdgraph.graphs import class_distances

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def gv(ring, residue):
    return gamma_vertex(ring, ring.from_residue(residue))


class TestConstruction:
    def test_rejects_fields(self):
        f7 = build_ring(SquarefreeModulus(7))
        with pytest.raises(EmptyGraph):
            build_gamma(f7)
        with pytest.raises(EmptyGraph):
            build_ag(f7)

    def test_vertex_and_edge_counts(self, z30):
        G = build_gamma(z30)
        A = build_ag(z30)
        assert (G.vertex_count(), G.edge_count()) == (21, 38)
        assert (A.vertex_count(), A.edge_count()) == (6, 6)
        # six proper nonzero supports over three coordinates
        assert len(G.classes) == 6
        assert G.weight(0b001) == 1 and G.weight(0b110) == 8
        assert all(A.weight(m) == 1 for m in A.classes)

    def test_counts_at_k20_allocate_no_class_table(self):
        # a tuple with one entry per class is 8 MB at k = 20 for 𝔸𝔾 alone
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
        ring = build_ring(PrimeFactors(primes))
        full = ring.full_mask
        tracemalloc.start()
        try:
            G, A = build_gamma(ring), build_ag(ring)
            counts = [(H.vertex_count(), H.edge_count(), H.weight(1), H.weight(full - 1)) for H in (G, A)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, units = math.prod(primes), math.prod(q - 1 for q in primes)
        edges = (math.prod(2 * q - 1 for q in primes) - 2 * n + 1) // 2
        # full - 1 drops only the F2 coordinate, whose one unit leaves the product as is
        assert counts[0] == (n - units - 1, edges, 1, units)
        assert counts[1] == (2**20 - 2, (3**20 - 2**21 + 1) // 2, 1, 1)
        assert peak < 100_000

    def test_vertex_roundtrip(self, z30):
        G = build_gamma(z30)
        for residue in (2, 3, 5, 6, 10, 15, 12, 24, 25):
            v = gv(z30, residue)
            assert G.check_vertex(v) is None
            assert z30.label(vertex_element(z30, v)) == str(residue)

    def test_vertex_render(self):
        assert Vertex(0b101).render() == "S={1,3}"
        assert Vertex(0b101, 2).render() == "S={1,3}#2"

    def test_ag_vertices_are_supports(self, z30, f2_4):
        v = Vertex(0b101)
        # modulus rings label ideals by a principal generator,
        # pure products fall back to the support form
        assert vertex_label(build_ag(z30), v) == "(3)"
        assert vertex_label(build_ag(f2_4), v) == "I{1,3}"

    def test_check_vertex_rejects_bad_copies(self, z30):
        A = build_ag(z30)
        with pytest.raises(Exception):
            A.check_vertex(Vertex(0b001, copy=1))

    def test_check_vertex_checks_the_class_of_copy_zero(self, z30):
        # copy 0 skips the weight, but not the class range
        G = build_gamma(z30)
        for mask in (0, G.full_mask, G.full_mask + 1, -1):
            with pytest.raises(ValueError, match="is not a vertex class"):
                G.check_vertex(Vertex(mask))
        # class {1,2} of Z/30 = F2 x F3 x F5 holds (2 - 1)(3 - 1) = 2 copies
        assert G.check_vertex(Vertex(0b011, 1)) is None
        for copy in (2, 3, -1):
            with pytest.raises(ValueError, match=f"copy {copy} out of range"):
                G.check_vertex(Vertex(0b011, copy))


class TestDistance:
    def test_frozen_distances(self, z30):
        G = build_gamma(z30)
        assert distance(G, gv(z30, 6), gv(z30, 10)) == 1
        assert distance(G, gv(z30, 2), gv(z30, 15)) == 1
        assert distance(G, gv(z30, 2), gv(z30, 3)) == 3
        assert distance(G, gv(z30, 2), gv(z30, 2)) == 0

    def test_same_class_distance_is_two(self, z30):
        G = build_gamma(z30)
        u, v = gv(z30, 6), gv(z30, 12)
        assert u.mask == v.mask and u.copy != v.copy
        assert distance(G, u, v) == 2

    def test_k2_same_class_disconnected_when_weight_one(self):
        ring = build_ring(PrimeFactors((2, 2)))
        G = build_gamma(ring)
        # each class has a single vertex, so no same-class pair exists;
        # cross pairs are adjacent
        assert distance(G, Vertex(0b01), Vertex(0b10)) == 1

    def test_ag_distances(self, z30):
        A = build_ag(z30)
        assert distance(A, Vertex(0b001), Vertex(0b110)) == 1
        assert distance(A, Vertex(0b001), Vertex(0b011)) == 2
        assert distance(A, Vertex(0b011), Vertex(0b110)) == 3


class TestEccentricity:
    def test_frozen_eccentricities(self, z30):
        G = build_gamma(z30)
        assert eccentricity(G, gv(z30, 15)) == 2
        assert eccentricity(G, gv(z30, 2)) == 3

    def test_radius_and_diameter(self, z30, z6, f33):
        assert radius(build_gamma(z30)) == 2
        assert diameter(build_gamma(z30)) == 3
        assert radius(build_gamma(z6)) == 1
        assert radius(build_gamma(f33)) == 2
        assert radius(build_ag(z30)) == 2

    def test_every_vertex_two_or_three(self, z105):
        from zdgraph import class_eccentricity

        G = build_gamma(z105)
        for mask in G.classes:
            e = class_eccentricity(G, mask)
            assert e == (2 if bin(mask).count("1") == 1 else 3)


def list_bfs_levels(G, src):
    """Plain BFS from class mask `src`, classes joined when their masks are disjoint: the masks at each distance."""
    seen = {src}
    levels = []
    frontier = [src]
    while frontier:
        levels.append(set(frontier))
        nxt = []
        for a in frontier:
            for b in G.classes:
                if a & b == 0 and b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return levels


def masks_of(bitset):
    return {m for m in range(bitset.bit_length()) if bitset >> m & 1}


class TestBitsetBFS:
    @pytest.mark.parametrize(
        "qs",
        [(2, 3, 5, 7, 11, 13), (2, 2, 3, 3, 5), (2, 3), (3, 3)],
        ids=["F2xF3xF5xF7xF11xF13", "F2xF2xF3xF3xF5", "Z6", "F3xF3"],
    )
    def test_levels_match_list_bfs(self, qs):
        ring = build_ring(PrimeFactors(qs))
        for G in (build_gamma(ring), build_ag(ring)):
            for mask in G.classes:
                expected = list_bfs_levels(G, mask)
                assert [masks_of(level) for level in class_distances(G, mask)] == expected
                ecc = len(expected) - 1
                if G.weight(mask) >= 2:
                    ecc = max(ecc, 2)
                assert eccentricity(G, Vertex(mask)) == ecc

    def test_shortest_path_stops_at_near_and_respects_usable(self):
        lat = graphs._lattice(3)
        # u = {0} and v = {2}: their neighbors meet only in class {1}
        start, near = graphs._neighbors(lat, 1 << 0b001), graphs._neighbors(lat, 1 << 0b100)
        assert start & near == 1 << 0b010
        assert graphs._shortest_path(lat, start, near, lat[2]) == [0b010]
        assert graphs._shortest_path(lat, start, near, lat[2] & ~near) is None
        # with nothing to stop at, the walk keeps the empty level where it runs out
        assert graphs._levels(lat, start, lat[2] & ~near, 0) == [start & ~near, 0]

    def test_distance_of_every_class_pair_at_k5(self):
        ring = build_ring(PrimeFactors((2, 2, 3, 3, 5)))
        for G in (build_gamma(ring), build_ag(ring)):
            assert min(map(G.weight, G.classes)) == 1  # the repeated primes give weight-one classes
            for a in G.classes:
                dist = {m: d for d, level in enumerate(list_bfs_levels(G, a)) for m in level}
                for b in G.classes:
                    assert distance(G, Vertex(a), Vertex(b)) == dist[b]
                    if a == b and G.weight(a) >= 2:
                        assert distance(G, Vertex(a, 0), Vertex(a, 1)) == 2

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_radius_and_diameter_run_one_bfs_per_class_size(self, k, monkeypatch):
        calls = []

        def counting(G, src):
            calls.append(src)
            return class_distances(G, src)

        monkeypatch.setattr(graphs, "class_distances", counting)
        ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19, 23)[:k]))
        for G in (build_gamma(ring), build_ag(ring)):
            for metric in (radius, diameter):
                calls.clear()
                metric(G)
                assert len(calls) == k - 1, (G.kind, metric.__name__)

    def test_metrics_build_no_adjacency(self):
        ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19)))
        for build in (build_gamma, build_ag):
            G = build(ring)
            assert (radius(G), diameter(G)) == (2, 3)
            assert class_eccentricity(G, 0b1) == 2
            assert class_eccentricity(G, 0b11) == 3
            assert distance(G, Vertex(0b00011111), Vertex(0b11110001)) == 3
            assert distance(G, Vertex(0b001), Vertex(0b011)) == 2


class TestLocalStructure:
    def test_degree_and_pendant(self, z30):
        G = build_gamma(z30)
        assert degree(G, gv(z30, 15)) == 14
        assert degree(G, gv(z30, 2)) == 1
        assert is_pendant(G, gv(z30, 2))
        assert not is_pendant(G, gv(z30, 15))

    def test_ag_degree(self, z30):
        A = build_ag(z30)
        assert degree(A, Vertex(0b011)) == 1  # only I{3} annihilates it
        assert degree(A, Vertex(0b001)) == 3

    def test_triangle_vertices(self, z30):
        G = build_gamma(z30)
        on, witness = is_triangle_vertex(G, gv(z30, 15))
        assert on and witness is not None
        u, w = witness
        assert u.mask & w.mask == 0  # the two partners are themselves adjacent
        off, none = is_triangle_vertex(G, gv(z30, 2))
        assert not off and none is None

    def test_not_triangulated(self, corpus):
        for ring in corpus:
            for build in (build_gamma, build_ag):
                flag, witness = is_triangulated(build(ring))
                assert not flag
                assert witness is not None

    def test_orthogonal(self, z30):
        G = build_gamma(z30)
        assert orthogonal(G, gv(z30, 2), gv(z30, 15))
        assert not orthogonal(G, gv(z30, 6), gv(z30, 10))
        assert not orthogonal(G, gv(z30, 6), gv(z30, 12))


class TestGirth:
    def test_frozen_girths_z105(self, z105):
        G = build_gamma(z105)
        assert girth_through(G, gv(z105, 35), gv(z105, 21)).length == 3
        assert girth_through(G, gv(z105, 3), gv(z105, 5)).length == 6

    def test_pentagon_in_z210(self, z210):
        G = build_gamma(z210)
        res = girth_through(G, gv(z210, 14), gv(z210, 6))
        assert res.length == 5
        labels = [vertex_label(G, v) for v in res.cycle]
        assert len(labels) == 5 and len(set(labels)) == 5
        # consecutive cycle members must multiply to zero
        ring = z210
        elems = [ring.from_residue(int(s)) for s in labels]
        for a, b in zip(elems, elems[1:] + elems[:1]):
            assert ring.mul(a, b) == ring.zero()

    def test_pentagon_in_ideal_graph(self, f2_4):
        A = build_ag(f2_4)
        res = girth_through(A, Vertex(0b0110), Vertex(0b0101))
        assert res.length == 5
        assert not res.escalated

    def test_no_cycle_in_k2(self):
        ring = build_ring(PrimeFactors((2, 2)))
        G = build_gamma(ring)
        res = girth_through(G, Vertex(0b01), Vertex(0b10))
        assert math.isinf(res.length)
        assert res.cycle is None

    def test_cycle_is_frozen_length_everywhere(self, z105):
        G = build_gamma(z105)
        masks = G.classes
        for s in masks:
            for t in masks:
                if s >= t:
                    continue
                res = girth_through(G, Vertex(s), Vertex(t))
                if not math.isinf(res.length):
                    assert len(res.cycle) == int(res.length)

    def test_girth_builds_no_adjacency(self):
        ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19)))
        for build in (build_gamma, build_ag):
            G = build(ring)
            assert girth_through(G, Vertex(0b00000011), Vertex(0b00001100)).length == 3
            assert girth_through(G, Vertex(0b00000011), Vertex(0b00000110)).length == 4
            assert girth_through(G, Vertex(0b00011111), Vertex(0b11110001)).length == 6
            assert math.isinf(girth_through(G, Vertex(0b01111111), Vertex(0b11111110)).length)
        assert girth_through(build_gamma(ring), Vertex(0b10), Vertex(0b10, 1)).length == 4


class TestDomination:
    def test_frozen_sizes(self, z6, z30, f33):
        assert domination(build_gamma(z6)).size == 1
        assert domination(build_gamma(z6), total=True).size == 2
        assert domination(build_gamma(f33)).size == 2
        assert domination(build_gamma(z30), total=True).size == 3
        assert domination(build_ag(z30)).size == 3
        assert domination(build_ag(z30), total=True).size == 3

    def test_witnesses_are_valid_and_certified(self, z30):
        G = build_gamma(z30)
        res = domination(G, total=True)
        assert res.certified
        labels = sorted(vertex_label(G, v) for v in res.witness)
        assert labels == ["10", "15", "6"]
        assert len(res.witness) == res.size

    def test_singleton_dominator_in_z6(self, z6):
        G = build_gamma(z6)
        res = domination(G)
        assert vertex_label(G, res.witness[0]) == "3"

    def test_bound_chain(self, corpus):
        for ring in corpus:
            if len(ring.qs) < 2:
                continue
            for build in (build_gamma, build_ag):
                g = build(ring)
                d = domination(g).size
                dt = domination(g, total=True).size
                assert d <= dt <= 2 * d

    def test_no_search_and_no_adjacency_from_three_factors(self):
        # the root bound meets the incumbent, so the search is never entered
        ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)), max_factors=12)
        for build in (build_gamma, build_ag):
            for total in (False, True):
                res = domination(build(ring), total=total)
                assert (res.size, res.nodes, res.root_lower_bound) == (12, 0, 12)

    @pytest.mark.parametrize("k", range(3, 11))
    def test_bounds_meet_from_three_factors(self, k):
        # all k classes missing one coordinate pairwise conflict, so no round runs
        ring = build_ring(PrimeFactors(FIRST_PRIMES[:k]))
        for build in (build_gamma, build_ag):
            for total in (False, True):
                res = domination(build(ring), total=total)
                assert (res.size, res.nodes, res.root_lower_bound) == (k, 0, k), (build, total)

    def test_bounds_meet_for_total_at_two_factors(self):
        ring = build_ring(PrimeFactors(FIRST_PRIMES[:2]))
        for build in (build_gamma, build_ag):
            res = domination(build(ring), total=True)
            assert (res.size, res.nodes, res.root_lower_bound) == (2, 0, 2)

    def test_budget_hit_keeps_the_incumbent_uncertified(self, monkeypatch):
        monkeypatch.setattr(graphs, "DOMINATION_NODE_BUDGET", 1)
        res = domination(build_gamma(build_ring(PrimeFactors((3, 5)))))
        assert not res.certified
        assert (res.size, res.nodes, res.root_lower_bound) == (2, 2, 1)
        assert res.witness == (Vertex(0b01), Vertex(0b10))


class TestRetract:
    def test_retract_on_corpus(self, corpus):
        for ring in corpus:
            rep = retract_check(ring)
            assert rep.is_identity
            assert rep.preserves_adjacency
            assert rep.image_is_fixed
            assert rep.is_retraction
            assert rep.failures == ()
            assert rep.adjacency_mismatch is None

    def test_k16_walks_masks_without_an_ideal_list(self):
        # the closures of 2^16 - 2 plain masks peak near 7 MB; a list of that
        # many `Ideal`s kept beside them peaked at 12-17 MB on Python 3.10-3.13
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
        ring = build_ring(PrimeFactors(primes))
        # a closure that moves most ideals makes the check O(4^k), hours at k = 16
        ends = (1, 2, ring.full_mask - 1)
        assert [sz_closure(ring, Ideal(m)).mask for m in ends] == list(ends)
        tracemalloc.start()
        try:
            rep = retract_check(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.is_retraction and rep.is_identity
        assert rep.failures == () and rep.adjacency_mismatch is None
        assert peak < 9_500_000

    def test_disconnected_error_type(self):
        assert issubclass(Disconnected, Exception)
