import copy
import functools
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engines
from oracles import TableOracle
from zdgraph import (
    DecompositionMismatch,
    FactorNotPrimeField,
    InputFormatError,
    NotAdditiveGroup,
    NotCommutative,
    NotReduced,
    NotUnital,
    PrimeFactors,
    RingConstructionError,
    build_ring,
    load_table_file,
    table_from_json,
    table_to_json,
    zn_tables,
)
from zdgraph.cli import EXIT_OK, main
from zdgraph.rings import TableRing
from zdgraph import tables
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
    assert sorted([ring.table_iso[3], ring.table_iso[4]]) == [(0, 1), (1, 0)]


def test_decompose_product_tables():
    t = product_tables((3, 5))
    ring = decompose_table_ring(t)
    assert ring.qs == (3, 5)
    t2 = product_tables((2, 2))
    assert decompose_table_ring(t2).qs == (2, 2)


def test_rings_with_equal_factors_are_equal_whatever_their_source():
    # the table map is not compared, so a table ring equals the ring of its factors
    assert build_ring(zn_tables(6)) == build_ring(PrimeFactors((2, 3)))
    assert build_ring(product_tables((2, 3))) == build_ring(zn_tables(6))


def test_table_arithmetic_matches_source():
    t = zn_tables(15)
    ring = decompose_table_ring(t)
    iso = ring.table_iso
    for x in range(15):
        for y in range(15):
            s = tuple((a + b) % q for a, b, q in zip(iso[x], iso[y], ring.qs))
            p = ring.mul(ring.element(iso[x]), ring.element(iso[y]))
            assert s == iso[t.add[x][y]]
            assert p.coords == iso[t.mul[x][y]]


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


def _corrupted(t: TableRing, *changes, one: int | None = None) -> TableRing:
    """t with each (table, x, y, value) written into the named table, and one replaced if given."""
    tables = {"add": [list(row) for row in t.add], "mul": [list(row) for row in t.mul]}
    for name, x, y, v in changes:
        tables[name][x][y] = v
    one = t.one if one is None else one
    return TableRing(t.size, one, *(tuple(map(tuple, tables[name])) for name in ("add", "mul")))


def test_commutativity_names_the_first_pair():
    t = zn_tables(30)
    # one-sided changes below the diagonal at (20, 7) and (9, 4): the pairs
    # (x, y), y > x, that differ are (7, 20) and (4, 9), the first in row-major order
    with pytest.raises(NotCommutative) as exc:
        decompose_table_ring(_corrupted(t, ("mul", 20, 7, 0), ("mul", 9, 4, 0)))
    assert exc.value.args == ("multiplication table is not commutative, witness pair (4, 9)",)
    assert exc.value.witness == (4, 9)
    with pytest.raises(NotCommutative) as exc:
        decompose_table_ring(_corrupted(t, ("mul", 7, 20, 0), ("mul", 3, 11, 0)))
    assert exc.value.witness == (3, 11)
    with pytest.raises(NotAdditiveGroup) as exc:
        decompose_table_ring(_corrupted(t, ("add", 20, 7, 0)))
    assert exc.value.args == ("addition is not commutative at row 7",)


def test_round_trip_names_the_first_bad_entry():
    t = zn_tables(30)
    # symmetric changes away from the zero row, the identity row, the diagonal
    # and the idempotent rows get past commutativity, unit, reducedness and
    # the factor checks; only the round trip sees them
    cases = [
        ((("mul", 2, 3, 7), ("mul", 3, 2, 7)), (2, 3, "mul")),
        ((("add", 2, 3, 6), ("add", 3, 2, 6)), (2, 3, "add")),
        ((("add", 2, 3, 6), ("add", 3, 2, 6), ("mul", 2, 3, 7), ("mul", 3, 2, 7)), (2, 3, "add")),
        ((("add", 4, 9, 0), ("add", 9, 4, 0), ("mul", 4, 7, 1), ("mul", 7, 4, 1)), (4, 7, "mul")),
        ((("add", 11, 13, 0), ("add", 13, 11, 0), ("mul", 8, 29, 2), ("mul", 29, 8, 2)), (8, 29, "mul")),
    ]
    for changes, witness in cases:
        with pytest.raises(DecompositionMismatch) as exc:
            decompose_table_ring(_corrupted(t, *changes))
        assert exc.value.witness == witness
        assert exc.value.args == (f"coordinatewise operations disagree with tables at {witness}",)


def relabelled(t: TableRing, seed: int) -> TableRing:
    """The same ring with index i renamed perm[i], perm shuffled by random.Random(seed)."""
    n = t.size
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    inv = sorted(range(n), key=perm.__getitem__)

    def rename(rows):
        return tuple(tuple(perm[rows[inv[a]][inv[b]]] for b in range(n)) for a in range(n))

    return TableRing(n, perm[t.one], rename(t.add), rename(t.mul))


def _outcome(decompose, t: TableRing):
    try:
        ring = decompose(t)
    except RingConstructionError as exc:
        return type(exc), exc.args
    return ring.qs, ring.table_iso


_product_tables = functools.cache(product_tables)


@st.composite
def corrupted_product_tables(draw):
    """Relabelled F_q1 x ... x F_qk tables (k <= 3) with up to three entries overwritten.

    An overwrite sets one add or mul entry, and with it the mirrored entry
    when it is symmetric.  Sometimes the identity index is replaced too.

    Or F3 x F7 x F7, which packs as two codes, F3 x F7 and F7, with one
    entry off the diagonal and outside the idempotent rows overwritten by
    the element that agrees with the right one in every coordinate but the
    last: every check before the round trip passes, and only the second
    code sees the change.
    """
    if draw(st.booleans()):
        qs = (3, 7, 7)
        t = _product_tables(qs)  # last coordinate fastest: index % 7 is the last coordinate
        non_idempotent = [x for x, coords in enumerate(itertools.product(*map(range, qs))) if max(coords) > 1]
        x, y = draw(st.lists(st.sampled_from(non_idempotent), min_size=2, max_size=2, unique=True))
        name = draw(st.sampled_from(("add", "mul")))
        right = getattr(t, name)[x][y]
        wrong = right - right % 7 + (right + draw(st.integers(1, 6))) % 7
        changes = [(name, x, y, wrong)] + ([(name, y, x, wrong)] if draw(st.booleans()) else [])
        return relabelled(_corrupted(t, *changes), draw(st.integers(0, 2**16)))
    qs = tuple(sorted(draw(st.lists(st.sampled_from((2, 3, 5, 7)), min_size=1, max_size=3))))
    t = relabelled(_product_tables(qs), draw(st.integers(0, 2**16)))
    n = t.size
    changes = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(("add", "mul")))
        x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        changes.append((name, x, y, v))
        if draw(st.booleans()):
            changes.append((name, y, x, v))
    one = draw(st.integers(0, n - 1)) if draw(st.booleans()) else None
    return _corrupted(t, *changes, one=one)


@given(t=corrupted_product_tables())
@settings(max_examples=150, deadline=None)
def test_decomposition_matches_entry_scan(t):
    assert _outcome(decompose_table_ring, t) == _outcome(reference_engines.decompose_table_ring, t)


_Z30 = relabelled(zn_tables(30), 30)


@pytest.mark.parametrize(
    "t, expected",
    [
        # the scan's errors still come first: a one-sided mul change with a
        # wrong identity is not commutative, not merely not unital
        (_corrupted(_Z30, ("mul", 20, 7, 0), one=_Z30.add[_Z30.one][_Z30.one]), NotCommutative),
        (_corrupted(zn_tables(30), ("mul", 20, 7, 0), one=0), NotCommutative),
        (_corrupted(_Z30, ("add", 9, 4, 0)), NotAdditiveGroup),
        (relabelled(product_tables((2, 2)), 1), (2, 2)),
    ],
)
def test_error_precedence_matches_entry_scan(t, expected):
    outcome = _outcome(decompose_table_ring, t)
    assert outcome == _outcome(reference_engines.decompose_table_ring, t)
    assert outcome[0] == expected


@pytest.mark.parametrize("t", [_Z30, relabelled(zn_tables(210), 210), relabelled(product_tables((2, 2)), 2)])
def test_tables_that_decompose_skip_the_commutativity_scan(t, monkeypatch):
    def fail(*args):
        raise AssertionError("the commutativity scan ran on tables that decompose")

    monkeypatch.setattr(tables, "_check_commutative_group", fail)
    assert _outcome(decompose_table_ring, t) == _outcome(reference_engines.decompose_table_ring, t)


@pytest.mark.parametrize(
    "qs, sizes",
    [
        ((7,), [7]),
        ((2, 2, 3, 3), [36]),
        ((2, 3, 5), [30]),
        ((2, 3, 5, 7), [30, 7]),
        ((2, 5, 13), [10, 13]),
        ((11, 13), [11, 13]),
        ((2, 5, 7, 11), [70, 11]),
        ((131,), [131]),
    ],
)
def test_coordinates_pack_into_codes_of_at_most_128_residues(qs, sizes):
    iso = list(itertools.product(*map(range, qs)))
    assert [len(shift) for _, shift, _ in tables._codes(qs, iso)] == sizes


# one code (a single coordinate, or several), and several codes of one or
# more coordinates each, with repeated primes among them
PACKED_CASES = [
    relabelled(product_tables((7,)), 7),
    relabelled(product_tables((2, 2, 3, 3)), 36),
    relabelled(zn_tables(30), 31),
    relabelled(zn_tables(210), 211),
    relabelled(zn_tables(130), 130),
    relabelled(product_tables((11, 13)), 143),
]


@pytest.mark.parametrize("t", PACKED_CASES, ids=lambda t: f"n{t.size}")
def test_rows_of_valid_tables_pass_the_packed_check(t):
    # a row that fails the packed check is rescanned entry by entry, which
    # gives the same answer, so only this test sees a check that fails rows
    # it should pass
    ring = decompose_table_ring(t)
    for c, shift, scale in tables._codes(ring.qs, list(ring.table_iso)):
        for x in range(t.size):
            assert tuple(c[v] for v in t.add[x]) == shift[c[x]]
            assert tuple(c[v] for v in t.mul[x]) == scale[c[x]]


@pytest.mark.parametrize("t", PACKED_CASES, ids=lambda t: f"n{t.size}")
def test_packed_round_trip_matches_entry_scan(t):
    """A symmetric entry pair off in any one coordinate is named as the entry scan names it.

    The pair (x, y) lies off the diagonal and outside the idempotent rows,
    so every check before the round trip passes and the scan names (x, y).
    """
    ring = decompose_table_ring(t)
    qs, iso = ring.qs, ring.table_iso
    index = {coords: x for x, coords in enumerate(iso)}
    idempotents = {x for x in range(t.size) if t.mul[x][x] == x}
    x, y = [v for v in range(t.size) if v not in idempotents][:2]
    for name in ("add", "mul"):
        right = iso[getattr(t, name)[x][y]]
        for i, q in enumerate(qs):
            wrong = index[(*right[:i], (right[i] + 1) % q, *right[i + 1:])]
            bad = _corrupted(t, (name, x, y, wrong), (name, y, x, wrong))
            outcome = _outcome(decompose_table_ring, bad)
            assert outcome == _outcome(reference_engines.decompose_table_ring, bad)
            assert outcome[0] is DecompositionMismatch
            assert outcome[1] == (f"coordinatewise operations disagree with tables at {(x, y, name)}",)


@pytest.mark.parametrize("n", [30, 210, 330])
def test_relabelled_tables_give_identical_reports(n, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_to_json(relabelled(zn_tables(n), n))))
    reports = []
    for ring in (["--table", str(path)], ["--zn", str(n)]):
        out = tmp_path / f"report{len(reports)}.json"
        assert main(["verify", *ring, "--seed", "3", "--report", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


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


def test_loaded_entries_share_one_int_per_value(tmp_path):
    path = tmp_path / "z330.json"
    path.write_text(json.dumps(table_to_json(relabelled(zn_tables(330), 330))))
    t = load_table_file(path)
    entries = [v for matrix in (t.add, t.mul) for row in matrix for v in row]
    assert len({id(v) for v in entries}) == len(set(entries)) == 330


@pytest.mark.parametrize("flat", [False, True], ids=["nested", "flat"])
def test_table_from_json_leaves_its_document(flat):
    doc = table_to_json(zn_tables(6))
    if flat:
        doc["add"] = [v for row in doc["add"] for v in row]
    before = copy.deepcopy(doc)
    outer = {key: doc[key] for key in ("add", "mul")}
    inner = {key: list(doc[key]) for key in ("add", "mul")}
    assert table_from_json(doc) == zn_tables(6)
    assert doc == before
    for key in ("add", "mul"):
        assert doc[key] is outer[key]
        assert all(a is b for a, b in zip(doc[key], inner[key], strict=True))


def test_load_table_file_peaks_as_json_load_does(tmp_path):
    # each row list is replaced by its tuple as soon as it is validated, so
    # the decoded lists and their tuples never all exist at once
    path = tmp_path / "z330.json"
    path.write_text(json.dumps(table_to_json(zn_tables(330))))

    def peak(load) -> int:
        tracemalloc.start()
        try:
            load()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def decode():
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=tables._IntPool().__getitem__)

    assert peak(lambda: load_table_file(path)) <= 1.05 * peak(decode)


MALFORMED_DOCS = [
    {"size": 2, "one": 1, "add": [[0, 1]], "mul": [[0, 0], [0, 1]]},
    {"size": 2, "one": 1, "add": [[0, 9], [1, 0]], "mul": [[0, 0], [0, 1]]},
    {"one": 1, "add": [], "mul": []},
]


def test_json_rejects_malformed():
    for doc in MALFORMED_DOCS:
        with pytest.raises(InputFormatError):
            table_from_json(doc)


Z3_ADD = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
Z3_MUL = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def _z3_doc(add_changes=(), flat=False, **fields):
    add = [row[:] for row in Z3_ADD]
    for x, y, v in add_changes:
        add[x][y] = v
    if flat:
        add = [v for row in add for v in row]
    return {"size": 3, "one": 1, "add": add, "mul": Z3_MUL, **fields}


BOOLEAN_CASES = [
    (_z3_doc(size=True, one=0), "size must be a positive integer, got True"),
    (_z3_doc(one=True), "one must be an index below 3, got True"),
    (_z3_doc(one=False), "one must be an index below 3, got False"),
    (_z3_doc([(2, 1, True)]), "add entry True is not an index below 3"),
    (_z3_doc([(0, 0, False)], flat=True), "add entry False is not an index below 3"),
    ({**_z3_doc(), "mul": [[0, 0, 0], [0, 1, 2], [0, 2, True]]}, "mul entry True is not an index below 3"),
]


@pytest.mark.parametrize("doc, message", BOOLEAN_CASES)
def test_json_rejects_booleans(doc, message):
    with pytest.raises(InputFormatError) as exc:
        table_from_json(doc)
    assert str(exc.value) == message


# the first bad entry in row-major order is named, whether the matrix is
# nested or flat; a matrix is flat when none of its entries is a list
BAD_ENTRY_CASES = [
    ([(0, 2, 1.5), (2, 1, -1)], False, "add entry 1.5 is not an index below 3"),
    ([(1, 0, "2"), (2, 2, 7)], False, "add entry '2' is not an index below 3"),
    ([(1, 2, -1), (2, 0, 2.0)], False, "add entry -1 is not an index below 3"),
    ([(2, 1, 3)], False, "add entry 3 is not an index below 3"),
    ([(0, 2, 1.5)], True, "add entry 1.5 is not an index below 3"),
    ([(2, 1, "2")], True, "add entry '2' is not an index below 3"),
    ([(1, 0, -1), (2, 1, 5)], True, "add entry -1 is not an index below 3"),
    ([(2, 2, 3)], True, "add entry 3 is not an index below 3"),
]


@pytest.mark.parametrize("changes, flat, message", BAD_ENTRY_CASES)
def test_json_parse_errors_name_the_first_bad_entry(changes, flat, message):
    with pytest.raises(InputFormatError) as exc:
        table_from_json(_z3_doc(changes, flat=flat))
    assert str(exc.value) == message


def _raised(parse, arg):
    with pytest.raises(Exception) as exc:
        parse(arg)
    return type(exc.value), exc.value.args


@pytest.mark.parametrize(
    "doc",
    [
        *MALFORMED_DOCS,
        *(doc for doc, _ in BOOLEAN_CASES),
        *(_z3_doc(changes, flat=flat) for changes, flat, _ in BAD_ENTRY_CASES),
    ],
)
def test_table_file_errors_match_table_from_json(doc, tmp_path):
    """The pooled integer parser changes no error: a file fails as its document does."""
    text = json.dumps(doc)
    path = tmp_path / "bad.json"
    path.write_text(text)
    expected = _raised(table_from_json, json.loads(text))
    assert expected[0] is InputFormatError
    assert _raised(load_table_file, path) == expected


def test_table_oracle_against_theory(z30):
    t = zn_tables(30)
    oracle = TableOracle(t)
    assert oracle.zero_divisors() == {
        x for x in range(1, 30) if z30.from_residue(x).support_mask != z30.full_mask
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
