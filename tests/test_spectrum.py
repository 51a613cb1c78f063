import pytest

from zdgraph import (
    Ideal,
    NoAnnihilatingIdeals,
    PlaceStatus,
    SquarefreeModulus,
    TopSet,
    bourbaki_primes,
    build_ring,
    cozero_set,
    fixed_place_status,
    interior,
    kernel,
    maximal_annihilating,
    min_primes,
    prime_annihilating,
    sz_closure,
    zero_set,
)
from zdgraph.rings import annihilator_element, enumerate_ideals
from zdgraph.spectrum import base_open_sets, is_isolated_point, is_singleton


def test_min_primes_are_coordinate_vanishing(z30):
    mps = min_primes(z30)
    assert [p.index for p in mps] == [0, 1, 2]
    assert mps[0].ideal == Ideal(0b110)
    assert [p.render(z30) for p in mps] == ["(2)", "(3)", "(5)"]
    # each minimal prime is the annihilator of the matching idempotent
    for p in mps:
        assert annihilator_element(z30, z30.idempotent(p.index)) == p.ideal


def test_zero_and_cozero_partition(z30):
    x = z30.from_residue(10)  # support {1}
    zs = zero_set(z30, x)
    cz = cozero_set(z30, x)
    assert zs.mask == 0b101
    assert cz.mask == 0b010
    assert zs.union(cz).is_full()
    assert zs.intersect(cz).is_empty()


def test_zero_set_relative_to_subspace(z30):
    y = TopSet(0b011, 3)
    x = z30.from_residue(10)
    assert zero_set(z30, x).intersect(y).mask == 0b001
    assert cozero_set(z30, x).intersect(y).mask == 0b010


def test_topology_is_discrete(z30):
    # every subset is a base open set, so interiors are trivial
    opens = {o.mask for o in base_open_sets(z30)}
    assert 0b001 in opens and 0b101 in opens
    a = TopSet(0b110, 3)
    assert interior(z30, a).mask == a.mask
    for i in range(3):
        assert is_isolated_point(z30, i)


def test_singletons():
    assert is_singleton(TopSet(0b100, 3))
    assert not is_singleton(TopSet(0, 3))
    assert not is_singleton(TopSet(0b011, 3))


def test_kernel_is_support_complement(z30):
    a = TopSet(0b101, 3)  # hull of these two primes
    assert kernel(z30, a) == Ideal(0b010)
    assert kernel(z30, TopSet(0, 3)) == Ideal(0b111)
    assert kernel(z30, TopSet(0b111, 3)) == Ideal(0)


def test_bourbaki_primes_and_witnesses(z30):
    bs = bourbaki_primes(z30)
    assert [p.ideal for p in bs.primes] == [p.ideal for p in min_primes(z30)]
    for prime, witness in zip(bs.primes, bs.witnesses):
        assert annihilator_element(z30, witness) == prime.ideal
    # in Z30 the witnesses are the familiar idempotents 15, 10, 6
    assert [z30.label(w) for w in bs.witnesses] == ["15", "10", "6"]


def test_fixed_place(z30):
    status, kern = fixed_place_status(z30)
    assert status is PlaceStatus.FIXED_PLACE
    assert kern == Ideal(0)
    assert str(PlaceStatus.FIXED_PLACE) == "PlaceStatus.FIXED_PLACE" or status.value == "FixedPlace"


def test_fixed_place_for_fields():
    f5 = build_ring(SquarefreeModulus(5))
    status, kern = fixed_place_status(f5)
    assert status is PlaceStatus.FIXED_PLACE
    assert kern == Ideal(0)


def test_sz_closure_is_identity(z30):
    for ideal in enumerate_ideals(z30):
        assert sz_closure(z30, ideal) == ideal


def test_maximal_annihilating_are_min_primes(z30):
    maxi = maximal_annihilating(z30)
    assert {i.mask for i in maxi} == {p.ideal.mask for p in min_primes(z30)}
    assert {i.mask for i in prime_annihilating(z30)} == {i.mask for i in maxi}


def test_maximal_annihilating_rejects_fields():
    f7 = build_ring(SquarefreeModulus(7))
    with pytest.raises(NoAnnihilatingIdeals):
        maximal_annihilating(f7)


def test_spectrum_sets_coincide_on_corpus(corpus):
    for ring in corpus:
        expected = {p.ideal.mask for p in min_primes(ring)}
        assert {i.mask for i in maximal_annihilating(ring)} == expected
        assert {i.mask for i in prime_annihilating(ring)} == expected
        assert {p.ideal.mask for p in bourbaki_primes(ring).primes} == expected
