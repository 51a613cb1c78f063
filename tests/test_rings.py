import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdgraph import (
    Element,
    Ideal,
    NotSquarefree,
    PrimeFactors,
    Ring,
    RingConstructionError,
    SquarefreeModulus,
    TooManyElements,
    TooManyFactors,
    annihilating_ideals,
    annihilator_element,
    build_ring,
    enumerate_ideals,
    factor_squarefree,
    ideal_contains,
    ideal_product,
    zn_tables,
)
from zdgraph.corpus import squarefree_moduli
from zdgraph.rings import FACTOR_BOUND, elements_of_ideal, render_support


def test_factor_squarefree_basics():
    assert factor_squarefree(30) == [2, 3, 5]
    assert factor_squarefree(2) == [2]
    assert factor_squarefree(105) == [3, 5, 7]
    assert factor_squarefree(462) == [2, 3, 7, 11]


def test_factor_squarefree_rejects_squares():
    with pytest.raises(NotSquarefree) as exc:
        factor_squarefree(12)
    assert exc.value.repeated_prime == 2
    with pytest.raises(NotSquarefree):
        factor_squarefree(45)  # 3^2 * 5
    with pytest.raises(RingConstructionError):
        factor_squarefree(1)
    with pytest.raises(RingConstructionError):
        factor_squarefree(0)


def test_mask_helpers():
    assert render_support(0b101) == "{1,3}"
    assert render_support(0) == "{}"


def test_build_from_modulus(z30):
    assert z30.qs == (2, 3, 5)
    assert z30.size == 30
    assert z30.modulus == 30
    assert z30.k == 3


def test_build_from_primes():
    r = build_ring(PrimeFactors((5, 3)))
    # user ordering is preserved for pure products
    assert r.qs == (5, 3)
    assert r.modulus is None
    with pytest.raises(RingConstructionError):
        build_ring(PrimeFactors((4,)))
    with pytest.raises(RingConstructionError):
        build_ring(PrimeFactors(()))


def test_factors_above_the_bound_are_rejected_before_trial_division():
    # trial division of a prime near 10^18 would take ~5 * 10^8 steps
    above = (PrimeFactors((2, 10**18 + 3)), PrimeFactors((FACTOR_BOUND + 1,)), SquarefreeModulus(FACTOR_BOUND + 1))
    for spec in above:
        with pytest.raises(RingConstructionError, match=r"10\^9 factorization bound"):
            build_ring(spec)
    with pytest.raises(RingConstructionError, match="not prime"):
        build_ring(PrimeFactors((FACTOR_BOUND,)))
    # the largest prime below the bound
    assert build_ring(PrimeFactors((2, 999_999_937))).qs == (2, 999_999_937)
    # every modulus below the limit must be under the bound, and the limit is checked first
    with pytest.raises(RingConstructionError, match=r"10\^9 factorization bound"):
        squarefree_moduli(FACTOR_BOUND + 2)


def test_zero_ring_is_rejected():
    # a table of size 1 decomposes into no factors at all
    with pytest.raises(RingConstructionError, match="zero ring"):
        build_ring(zn_tables(1))


def test_factor_cap():
    with pytest.raises(TooManyFactors):
        build_ring(PrimeFactors((2,) * 21))
    with pytest.raises(TooManyFactors):
        build_ring(PrimeFactors((2, 2, 2)), max_factors=2)
    # table input reaches the same single check, after decomposition
    with pytest.raises(TooManyFactors) as exc:
        build_ring(zn_tables(30), max_factors=2)
    assert (exc.value.k, exc.value.cap) == (3, 2)


def test_residue_labels_round_trip(z30):
    for x in range(30):
        e = z30.from_residue(x)
        assert z30.label(e) == str(x)
    # CRT coordinates of familiar residues
    assert z30.from_residue(15).coords == (1, 0, 0)
    assert z30.from_residue(10).coords == (0, 1, 0)
    assert z30.from_residue(6).coords == (0, 0, 1)
    assert z30.from_residue(2).coords == (0, 2, 2)
    assert z30.from_residue(3).coords == (1, 0, 3)


def test_arithmetic_matches_residues(z30):
    for x in (0, 1, 2, 7, 15, 29):
        for y in (0, 1, 6, 10, 28):
            a, b = z30.from_residue(x), z30.from_residue(y)
            assert z30.mul(a, b) == z30.from_residue((x * y) % 30)


def test_products_without_a_modulus_render_as_coordinates():
    ring = build_ring(PrimeFactors((2, 3, 5)))
    x, y = ring.element((1, 2, 3)), ring.element((1, 2, 4))
    assert ring.label(ring.mul(x, y)) == str(ring.mul(x, y)) == "(1,1,2)"


def test_table_ring_products_render_as_coordinates():
    t = zn_tables(30)
    ring = build_ring(t)
    for x in range(30):
        for y in range(30):
            p = ring.mul(Element(ring.table_iso[x]), Element(ring.table_iso[y]))
            assert p == Element(ring.table_iso[t.mul[x][y]])
            assert ring.label(p) == "(" + ",".join(map(str, p.coords)) + ")"


def test_unlabelled_operands_get_the_crt_label(z30):
    x, y = Element((1, 2, 3)), Element((1, 1, 4))  # 23 and 19 mod 30
    assert z30.label(x) == "23"
    assert z30.label(z30.mul(x, y)) == str(23 * 19 % 30)
    assert z30.label(z30.mul(x, z30.from_residue(19))) == str(23 * 19 % 30)


@pytest.mark.parametrize("qs, n", [((2, 3, 5), 30), ((3, 2), 6)])
def test_directly_built_ring_labels_like_build_ring(qs, n):
    direct, built = Ring(qs=qs, modulus=n), build_ring(SquarefreeModulus(n))
    for x in range(n):
        assert direct.label(direct.from_residue(x)) == built.label(built.from_residue(x)) == str(x)
        for y in range(n):
            a, b = direct.from_residue(x), direct.from_residue(y)
            product = built.mul(built.from_residue(x), built.from_residue(y))
            assert direct.label(direct.mul(a, b)) == built.label(product) == str(x * y % n)


def test_modulus_other_than_the_factor_product_is_rejected():
    with pytest.raises(ValueError, match="not the product"):
        Ring(qs=(2, 3), modulus=30)


@pytest.mark.parametrize("coords", [(1, 2), (1, 2, 3, 4)])
def test_wrong_coordinate_count_is_rejected(z30, coords):
    bad, good = Element(coords), z30.from_residue(7)
    for call in (
        lambda: z30.element(coords),
        lambda: z30.mul(bad, good),
        lambda: z30.mul(good, bad),
    ):
        with pytest.raises(ValueError, match="expected 3 coordinates"):
            call()


def test_ideal_member_list_is_capped():
    ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19)))
    assert len(elements_of_ideal(ring, Ideal(0b1111))) == 2 * 3 * 5 * 7
    with pytest.raises(TooManyElements):
        elements_of_ideal(ring, Ideal(ring.full_mask))


def test_supports(z30):
    assert z30.from_residue(15).support_mask == 0b001
    assert z30.from_residue(2).support_mask == 0b110
    assert z30.from_residue(0).support_mask == 0
    assert z30.from_residue(1).support_mask == 0b111


def test_annihilators(z30):
    a = z30.from_residue(15)
    assert annihilator_element(z30, a) == Ideal(0b110)


def test_ideal_enumeration(z30):
    all_ideals = enumerate_ideals(z30)
    assert len(all_ideals) == 8
    ann = annihilating_ideals(z30)
    assert len(ann) == 6
    assert Ideal(0) not in ann
    assert Ideal(0b111) not in ann


def test_ideal_lattice_operations(z30):
    a = Ideal(0b011)
    b = Ideal(0b110)
    assert ideal_product(z30, a, b) == Ideal(0b010)
    assert ideal_contains(a, Ideal(0b001))
    assert not ideal_contains(Ideal(0b001), a)


def test_ideal_product_matches_element_products(z30):
    # the support rule reproduces literal multiplication of ideal elements
    a = Ideal(0b011)
    b = Ideal(0b100)
    assert ideal_product(z30, a, b) == Ideal(0)
    for x in elements_of_ideal(z30, a):
        for y in elements_of_ideal(z30, b):
            assert z30.mul(x, y) == z30.zero()


MUL_RINGS = (
    [build_ring(SquarefreeModulus(n)) for n in (6, 30, 210, 2310)]
    + [build_ring(PrimeFactors(qs)) for qs in ((2, 3, 5), (3, 3, 5, 7))]
    + [build_ring(zn_tables(30))]
)


def _crt_label(ring, coords):
    """How a product should print: its residue mod n, found by search, else its coordinates."""
    if ring.modulus is None:
        return "(" + ",".join(map(str, coords)) + ")"
    return str(next(x for x in range(ring.modulus) if all(x % q == c for q, c in zip(ring.qs, coords))))


@st.composite
def _operand(draw, ring):
    # zero coordinates half the time, so disjoint supports and zero products are common
    coords = tuple(draw(st.integers(0, q - 1)) if draw(st.booleans()) else 0 for q in ring.qs)
    if draw(st.booleans()):
        return Element(coords)  # built directly, not through the ring
    return ring.element(coords)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_products_are_coordinatewise_with_the_crt_label(data):
    ring = data.draw(st.sampled_from(MUL_RINGS))
    a, b = data.draw(_operand(ring)), data.draw(_operand(ring))
    product = ring.mul(a, b)
    coords = tuple(x * y % q for x, y, q in zip(a.coords, b.coords, ring.qs))
    assert product.coords == coords
    assert ring.label(product) == _crt_label(ring, coords)
    assert (product == ring.zero()) == (a.support_mask & b.support_mask == 0)
    assert ring.label(ring.zero()) == _crt_label(ring, (0,) * ring.k)


def test_ideal_render_uses_generators_for_moduli(z30):
    assert Ideal(0b110).render(z30) == "(2)"
    assert Ideal(0b101).render(z30) == "(3)"
    assert Ideal(0b011).render(z30) == "(5)"
    plain = build_ring(PrimeFactors((2, 3, 5)))
    assert Ideal(0b011).render(plain) == "I{1,2}"


def test_field_ring():
    f7 = build_ring(SquarefreeModulus(7))
    assert f7.k == 1
    assert annihilating_ideals(f7) == []
