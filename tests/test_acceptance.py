"""End-to-end acceptance gate.

Ten criteria, one test each, named test_criterion_NN_*.  Each prints a
single "criterion NN (...): PASS" line on success (visible with -s) or a
FAIL line before the assertion surfaces.  Time budgets are enforced with
monotonic clocks where a criterion states one.
"""

import functools
import math
import random
import time

from zdgraph import (
    PrimeFactors,
    PlaceStatus,
    SquarefreeModulus,
    Verdict,
    Vertex,
    bourbaki_primes,
    build_ag,
    build_gamma,
    build_ring,
    degree,
    diameter,
    distance,
    domination,
    eccentricity,
    fixed_place_status,
    girth_through,
    is_pendant,
    is_triangle_vertex,
    is_triangulated,
    maximal_annihilating,
    min_primes,
    orthogonal,
    prime_annihilating,
    radius,
    run_verification,
    sz_closure,
)
from zdgraph.cli import EXIT_OK, main as cli_main
from zdgraph.corpus import canonical_corpus, squarefree_moduli
from oracles import (
    ag_from_ideal_products,
    bfs_distances,
    bfs_eccentricity,
    bfs_radius,
    bfs_diameter,
    cycle_through_pair_flow,
    exhaustive_domination,
    gamma_from_multiplication,
    materialize,
    scan_orthogonal,
    scan_pendant,
    scan_triangle_vertex,
)
from zdgraph.rings import annihilator_element, enumerate_ideals, ideal_product
from zdgraph.tables import decompose_table_ring, product_tables, zn_tables
from zdgraph.verify import _predict_distance


def stamp(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} ({label}): FAIL")
                raise
            print(f"criterion {num:02d} ({label}): PASS")

        return run

    return wrap


def class_representatives(G):
    """One vertex per class plus a second copy where the class has one."""
    reps = []
    for mask in G.classes:
        reps.append(Vertex(mask, 0))
        if G.weight(mask) >= 2:
            reps.append(Vertex(mask, 1))
    return reps


@stamp(1, "closed-form distances match breadth-first search")
def test_criterion_01_distances():
    t0 = time.monotonic()
    # literal element graphs below 70: check every single vertex pair
    for n in squarefree_moduli(70):
        ring = build_ring(SquarefreeModulus(n))
        if ring.k < 2:
            continue
        G = build_gamma(ring)
        eg = gamma_from_multiplication(ring)
        for i in range(eg.n):
            row = bfs_distances(eg, i)
            u = eg.labels[i]
            for j in range(eg.n):
                v = eg.labels[j]
                got = distance(G, u, v)
                assert got == row[j], (n, u.render(), v.render())
                if i != j:
                    assert got == _predict_distance(ring, u.mask, v.mask)
    # class structure carries every remaining modulus below 300
    for n in squarefree_moduli(300):
        if n < 70:
            continue
        ring = build_ring(SquarefreeModulus(n))
        if ring.k < 2:
            continue
        G = build_gamma(ring)
        eg = materialize(G)
        for u in class_representatives(G):
            row = bfs_distances(eg, eg.index_of(u))
            for v in class_representatives(G):
                assert distance(G, u, v) == row[eg.index_of(v)], (n, u, v)
    # every ideal pair for up to five factors
    for k in range(2, 6):
        for qs in ((2, 3, 5, 7, 11)[:k], (2,) * k):
            ring = build_ring(PrimeFactors(qs))
            A = build_ag(ring)
            eg = ag_from_ideal_products(ring)
            for i in range(eg.n):
                row = bfs_distances(eg, i)
                for j in range(eg.n):
                    got = distance(A, eg.labels[i], eg.labels[j])
                    assert got == row[j]
                    if i != j:
                        assert got == _predict_distance(
                            ring, eg.labels[i].mask, eg.labels[j].mask
                        )
    assert time.monotonic() - t0 < 60.0


@stamp(2, "eccentricity two-or-three and radius two on three-plus factors")
def test_criterion_02_eccentricity_radius():
    t0 = time.monotonic()
    for ring in canonical_corpus():
        if ring.k < 3:
            continue
        for build in (build_gamma, build_ag):
            G = build(ring)
            eg = materialize(G)
            for v in class_representatives(G):
                pred = eccentricity(G, v)
                assert pred in (2, 3)
                assert pred == bfs_eccentricity(eg, eg.index_of(v)), (ring.qs, v)
            assert radius(G) == 2
            assert bfs_radius(eg) == 2
    # the two-factor rings with radius one must surface as registered
    for ring in (build_ring(SquarefreeModulus(6)), build_ring(PrimeFactors((2, 3)))):
        G = build_gamma(ring)
        assert bfs_radius(materialize(G)) == 1
        report = run_verification(ring, suites=("radius", "eccentricity"), seed=7)
        bad = [r for r in report.records if r.verdict is Verdict.VIOLATED]
        assert bad and all(r.registered for r in bad)
        assert {r.check_id for r in bad} >= {"radius.gamma"}
        assert not report.has_unregistered_violations
    assert time.monotonic() - t0 < 60.0


@stamp(3, "no ring is triangulated; per-vertex triangle membership exact")
def test_criterion_03_triangulation():
    for ring in canonical_corpus():
        for build in (build_gamma, build_ag):
            G = build(ring)
            flag, witness = is_triangulated(G)
            assert not flag and witness is not None
            eg = materialize(G)
            assert not scan_triangle_vertex(eg, eg.index_of(witness))
            reps = class_representatives(G)
            if eg.n > 200:
                reps = reps[::2]
            for v in reps:
                assert is_triangle_vertex(G, v)[0] == scan_triangle_vertex(
                    eg, eg.index_of(v)
                ), (ring.qs, v)


@stamp(4, "shortest cycle through a pair matches exhaustive search")
def test_criterion_04_girth():
    seen_gamma, seen_ag = set(), set()
    gamma_records, ag_records = [], []
    for n in (15, 105):
        ring = build_ring(SquarefreeModulus(n))
        G = build_gamma(ring)
        eg = materialize(G)
        for u in class_representatives(G):
            for v in class_representatives(G):
                if u == v:
                    continue
                got = girth_through(G, u, v).length
                want = cycle_through_pair_flow(eg, eg.index_of(u), eg.index_of(v))
                assert got == want, (n, u, v)
                if not math.isinf(got):
                    seen_gamma.add(int(got))
        report = run_verification(ring, suites=("girth",), seed=7)
        assert not report.has_unregistered_violations
        gamma_records.extend(report.records)
    for k in (4, 5):
        ring = build_ring(PrimeFactors((2,) * k))
        A = build_ag(ring)
        eg = ag_from_ideal_products(ring)
        for i in range(eg.n):
            for j in range(i + 1, eg.n):
                got = girth_through(A, eg.labels[i], eg.labels[j]).length
                want = cycle_through_pair_flow(eg, i, j)
                assert got == want, (k, i, j)
                if not math.isinf(got):
                    seen_ag.add(int(got))
        report = run_verification(ring, suites=("girth",), seed=7)
        assert not report.has_unregistered_violations
        ag_records.extend(report.records)
    # the value-carrying clauses must actually fire and confirm:
    # 3, 4 and 6 on the element side; 3, 4 and the {4,5} window on ideals
    def confirmed(records, check_id):
        return [r for r in records if r.check_id == check_id and r.verdict is Verdict.CONFIRMED]

    assert any(r.oracle for r in confirmed(gamma_records, "girth.gamma.three"))
    assert confirmed(gamma_records, "girth.gamma.four-meeting")
    assert confirmed(gamma_records, "girth.gamma.six")
    assert any(r.oracle for r in confirmed(ag_records, "girth.ag.three"))
    assert confirmed(ag_records, "girth.ag.four-orthogonal")
    assert confirmed(ag_records, "girth.ag.four-meeting")
    five_range = confirmed(ag_records, "girth.ag.five-range")
    assert five_range and all(r.oracle in (4, 5) for r in five_range)
    assert seen_gamma == {3, 4, 6}
    # beyond the clause families, meeting pairs with a full union realize 6
    assert seen_ag == {3, 4, 5, 6}
    # the five-cycle pair in the four-factor ideal graph
    ring = build_ring(PrimeFactors((2, 2, 2, 2)))
    res = girth_through(build_ag(ring), Vertex(0b0110), Vertex(0b0101))
    assert res.length == 5


@stamp(5, "exact domination numbers with a certificate")
def test_criterion_05_domination():
    mixes = {
        2: (2, 3),
        3: (2, 3, 5),
        4: (2, 2, 3, 3),
        5: (2, 3, 5, 7, 11),
        6: (2,) * 6,
        7: (3, 3, 5, 5, 7, 7, 11),
        8: (2, 3, 5, 7, 11, 13, 17, 19),
    }
    for k, qs in mixes.items():
        ring = build_ring(PrimeFactors(qs))
        A = build_ag(ring)
        t0 = time.monotonic()
        plain = domination(A)
        tot = domination(A, total=True)
        elapsed = time.monotonic() - t0
        assert plain.certified and tot.certified
        if k == 2:
            assert plain.size == 1 and tot.size == 2
        else:
            assert plain.size == k and tot.size == k
        if k == 8:
            assert elapsed < 10.0
    t0 = time.monotonic()
    ring12 = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))
    A12 = build_ag(ring12)
    assert domination(A12).size == 12
    assert domination(A12, total=True).size == 12
    assert time.monotonic() - t0 < 120.0
    for ring in canonical_corpus():
        if ring.k < 2:
            continue
        gt = domination(build_gamma(ring), total=True)
        at = domination(build_ag(ring), total=True)
        assert gt.size <= at.size, ring.qs


@stamp(6, "prime, maximal and witness-bearing annihilator sets coincide")
def test_criterion_06_spectrum():
    for ring in canonical_corpus():
        if ring.k < 2:
            continue
        expected = {p.ideal.mask for p in min_primes(ring)}
        assert {i.mask for i in maximal_annihilating(ring)} == expected
        assert {i.mask for i in prime_annihilating(ring)} == expected
        bs = bourbaki_primes(ring)
        assert {p.ideal.mask for p in bs.primes} == expected
        for prime, witness in zip(bs.primes, bs.witnesses):
            assert annihilator_element(ring, witness) == prime.ideal
        status, kern = fixed_place_status(ring)
        assert status is PlaceStatus.FIXED_PLACE
        assert kern.mask == 0


@stamp(7, "closure retraction is the identity and preserves adjacency")
def test_criterion_07_retract():
    for ring in canonical_corpus():
        for ideal in enumerate_ideals(ring):
            assert sz_closure(ring, ideal) == ideal
    for qs in ((2,) * 6, (2, 3, 5, 7, 11, 13)):
        ring = build_ring(PrimeFactors(qs))
        ideals = list(enumerate_ideals(ring))
        for a in ideals:
            ca = sz_closure(ring, a)
            for b in ideals:
                lhs = ideal_product(ring, a, b).mask == 0
                rhs = ideal_product(ring, ca, sz_closure(ring, b)).mask == 0
                assert lhs == rhs


@stamp(8, "compressed answers equal literal brute force on every corpus ring")
def test_criterion_08_oracle_equivalence():
    rng = random.Random(8)
    for ring in canonical_corpus():
        if ring.k < 2 or ring.size > 2000:
            continue
        for build, lit in (
            (build_gamma, gamma_from_multiplication),
            (build_ag, ag_from_ideal_products),
        ):
            G = build(ring)
            eg = materialize(G)
            literal = lit(ring)
            assert eg.n == literal.n and eg.edge_count() == literal.edge_count()
            reps = class_representatives(G)
            exhaustive = eg.n <= 200
            if exhaustive:
                pair_reps = [(u, v) for u in reps for v in reps if u != v]
            else:
                pair_reps = [tuple(rng.sample(reps, 2)) for _ in range(120)]
            for v in reps:
                i = eg.index_of(v)
                assert eccentricity(G, v) == bfs_eccentricity(eg, i)
                assert degree(G, v) == len(eg.adj[i])
                assert is_pendant(G, v) == scan_pendant(eg, i)
                assert is_triangle_vertex(G, v)[0] == scan_triangle_vertex(eg, i)
            assert radius(G) == bfs_radius(eg)
            assert diameter(G) == bfs_diameter(eg)
            for u, v in pair_reps:
                i, j = eg.index_of(u), eg.index_of(v)
                assert distance(G, u, v) == bfs_distances(eg, i)[j]
                assert orthogonal(G, u, v) == scan_orthogonal(eg, i, j)
            girth_pairs = pair_reps if len(pair_reps) <= 60 else rng.sample(pair_reps, 60)
            for u, v in girth_pairs:
                got = girth_through(G, u, v).length
                want = cycle_through_pair_flow(eg, eg.index_of(u), eg.index_of(v))
                assert got == want, (ring.qs, u, v)
            if eg.n <= 24:
                for total in (False, True):
                    assert (
                        domination(G, total=total).size
                        == exhaustive_domination(eg, total=total)[0]
                    )


@stamp(9, "table-specified rings behave identically to native ones")
def test_criterion_09_table_rings():
    cases = (
        (zn_tables(6), (2, 3)),
        (product_tables((2, 2)), (2, 2)),
        (product_tables((3, 5)), (3, 5)),
    )
    for tables, qs in cases:
        decomposed = decompose_table_ring(tables)
        assert tuple(sorted(decomposed.qs)) == qs
        native = build_ring(PrimeFactors(decomposed.qs))
        a = run_verification(native, seed=7).to_json_bytes()
        b = run_verification(build_ring(tables), seed=7).to_json_bytes()
        assert a == b, f"reports differ for factors {qs}"


@stamp(10, "batch sweeps are byte-for-byte reproducible")
def test_criterion_10_determinism(tmp_path, capsys):
    outs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        code = cli_main(
            [
                "batch",
                "--squarefree-below",
                "300",
                "--out-dir",
                str(d),
                "--seed",
                "7",
            ]
        )
        assert code == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    names1 = sorted(p.name for p in d1.iterdir())
    names2 = sorted(p.name for p in d2.iterdir())
    assert names1 == names2 and names1
    for name in names1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
