import json

import pytest

from zdgraph import (
    DecompositionMismatch,
    FactorNotPrimeField,
    InputFormatError,
    NotAdditiveGroup,
    NotCommutative,
    NotReduced,
    NotUnital,
    TableOracle,
    build_ring,
    load_table_file,
    table_from_json,
    table_to_json,
    zn_tables,
)
from zdgraph.rings import TableRing
from zdgraph.tables import decompose_table_ring, product_tables


GF4_ADD = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def test_zn_tables_shape():
    t = zn_tables(6)
    assert t.size == 6
    assert t.one == 1
    assert t.add[2][5] == 1
    assert t.mul[2][5] == 4


def test_decompose_z6():
    ring = decompose_table_ring(zn_tables(6))
    assert ring.qs == (2, 3)
    assert ring.modulus is None
    # the primitive idempotents of Z6 are 3 and 4
    e0 = ring.from_table_index(3)
    e1 = ring.from_table_index(4)
    assert sorted([e0.coords, e1.coords]) == [(0, 1), (1, 0)]


def test_decompose_product_tables():
    t = product_tables((3, 5))
    ring = decompose_table_ring(t)
    assert ring.qs == (3, 5)
    t2 = product_tables((2, 2))
    assert decompose_table_ring(t2).qs == (2, 2)


def test_table_arithmetic_matches_source():
    t = zn_tables(15)
    ring = decompose_table_ring(t)
    for x in range(15):
        for y in range(15):
            s = ring.add(ring.from_table_index(x), ring.from_table_index(y))
            p = ring.mul(ring.from_table_index(x), ring.from_table_index(y))
            assert s == ring.from_table_index(t.add[x][y])
            assert p == ring.from_table_index(t.mul[x][y])


def test_rejects_nilpotents():
    with pytest.raises(NotReduced) as exc:
        decompose_table_ring(zn_tables(4))
    assert exc.value.witness == 2
    with pytest.raises(NotReduced):
        decompose_table_ring(zn_tables(12))


def test_rejects_non_prime_field_factor():
    with pytest.raises(FactorNotPrimeField) as exc:
        decompose_table_ring(TableRing(4, 1, GF4_ADD, GF4_MUL))
    assert exc.value.order == 4


def test_rejects_broken_structures():
    with pytest.raises(NotCommutative):
        decompose_table_ring(TableRing(2, 1, ((0, 1), (1, 0)), ((0, 0), (1, 0))))
    # an addition table that is not a group (no inverse for 1)
    with pytest.raises(NotAdditiveGroup):
        decompose_table_ring(TableRing(2, 1, ((0, 1), (1, 1)), ((0, 0), (0, 1))))
    # no multiplicative identity row
    with pytest.raises(NotUnital):
        decompose_table_ring(TableRing(2, 1, ((0, 1), (1, 0)), ((0, 0), (0, 0))))


def test_json_round_trip(tmp_path):
    t = zn_tables(10)
    doc = table_to_json(t)
    again = table_from_json(doc)
    assert again == t
    path = tmp_path / "z10.json"
    path.write_text(json.dumps(doc))
    assert load_table_file(path) == t


def test_json_flat_matrices():
    t = zn_tables(6)
    doc = table_to_json(t)
    doc["add"] = [v for row in doc["add"] for v in row]
    assert table_from_json(doc) == t


def test_json_rejects_malformed():
    with pytest.raises(InputFormatError):
        table_from_json({"size": 2, "one": 1, "add": [[0, 1]], "mul": [[0, 0], [0, 1]]})
    with pytest.raises(InputFormatError):
        table_from_json({"size": 2, "one": 1, "add": [[0, 9], [1, 0]], "mul": [[0, 0], [0, 1]]})
    with pytest.raises(InputFormatError):
        table_from_json({"one": 1, "add": [], "mul": []})


def test_table_oracle_against_theory(z30):
    t = zn_tables(30)
    oracle = TableOracle(t)
    assert oracle.zero_divisors() == {
        x for x in range(1, 30) if z30.is_zero_divisor(z30.from_residue(x))
    }
    # annihilator of 6 is the multiples of 5
    assert oracle.annihilator(6) == {0, 5, 10, 15, 20, 25}
    assert oracle.principal(2) == {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
    assert len(oracle.all_ideals()) == 8
    mins = oracle.minimal_primes()
    assert sorted(len(p) for p in mins) == [6, 10, 15]


def test_table_oracle_bourbaki(z30):
    oracle = TableOracle(zn_tables(30))
    got = oracle.bourbaki_primes()
    assert len(got) == 3
    primes = {frozenset(p) for p, _ in got}
    assert primes == {frozenset(p) for p in oracle.minimal_primes()}
    for p, witness in got:
        assert oracle.annihilator(witness) == p


def test_build_ring_accepts_tables():
    ring = build_ring(zn_tables(6))
    assert ring.qs == (2, 3)
