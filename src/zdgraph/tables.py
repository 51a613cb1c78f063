"""Table-ring input: validation and decomposition into prime fields.

A table ring is the fully explicit form of a finite ring: addition and
multiplication as index matrices.  Decomposition splits the ring along its
primitive idempotents, maps each factor to a prime field, and round-trips
the tables against coordinatewise arithmetic, so a successful decomposition
is itself a proof that the input was a valid reduced commutative ring.
"""

from __future__ import annotations

import itertools
import json
import math
import operator

from .errors import (
    DecompositionMismatch,
    FactorNotField,
    FactorNotPrimeField,
    InputFormatError,
    NotAdditiveGroup,
    NotCommutative,
    NotReduced,
    NotUnital,
    RingConstructionError,
)
from .rings import Ring, TableRing, _is_prime


# ---------------------------------------------------------------------------
# generators (handy for tests, demos, and building corpus files)


def zn_tables(n: int) -> TableRing:
    if n < 1:
        raise InputFormatError(f"table size must be positive, got {n}")
    add = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    mul = tuple(tuple((i * j) % n for j in range(n)) for i in range(n))
    return TableRing(size=n, one=1 % n, add=add, mul=mul)


def product_tables(qs: tuple[int, ...] | list[int]) -> TableRing:
    """Tables of F_q1 x ... x F_qk with the last coordinate varying fastest."""
    qs = tuple(qs)
    coords = list(itertools.product(*map(range, qs)))
    index = {c: i for i, c in enumerate(coords)}

    def table(op) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(index[tuple(map(operator.mod, map(op, x, y), qs))] for y in coords) for x in coords)

    one = index[tuple(1 % q for q in qs)]
    return TableRing(size=len(coords), one=one, add=table(operator.add), mul=table(operator.mul))


# ---------------------------------------------------------------------------
# JSON form
#
# {"size": n, "one": i, "add": [[...], ...], "mul": [[...], ...]}
# Matrices are row-major; rows may be nested lists or one flat list.
# Indices are JSON integers; booleans are rejected although Python counts
# them as ints.


def table_to_json(t: TableRing) -> dict:
    return {
        "size": t.size,
        "one": t.one,
        "add": [list(row) for row in t.add],
        "mul": [list(row) for row in t.mul],
    }


def _is_index(v, size: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < size


def _parse_matrix(obj, size: int, name: str) -> tuple[tuple[int, ...], ...]:
    """The rows of a decoded matrix as tuples: every shape error first, then the first bad entry.

    Each nested row list of `obj` is replaced by its tuple as soon as that row
    is validated, so at most one row exists twice; a flat `obj` is left as is.
    """
    if not isinstance(obj, list):
        raise InputFormatError(f"{name} must be a list")
    if obj and not any(issubclass(t, list) for t in set(map(type, obj))):
        if len(obj) != size * size:
            raise InputFormatError(f"flat {name} must have {size * size} entries")
        rows = [obj[i * size:(i + 1) * size] for i in range(size)]
    else:
        if len(obj) != size:
            raise InputFormatError(f"{name} must have {size} rows")
        for r in obj:
            if not isinstance(r, list) or len(r) != size:
                raise InputFormatError(f"every {name} row must have {size} entries")
        rows = obj
    for i, row in enumerate(rows):
        # a row of plain ints in range passes whole; any other row is scanned
        # entry by entry, which names its first bad entry
        if not (set(map(type, row)) == {int} and min(row) >= 0 and max(row) < size):
            for v in row:
                if not _is_index(v, size):
                    raise InputFormatError(f"{name} entry {v!r} is not an index below {size}")
        rows[i] = tuple(row)
    return tuple(rows)


def _table_from_document(obj) -> TableRing:
    """`table_from_json` on a document it may change: nested row lists become tuples in place."""
    if not isinstance(obj, dict):
        raise InputFormatError("table document must be a JSON object")
    try:
        size = obj["size"]
        one = obj["one"]
    except KeyError as exc:
        raise InputFormatError(f"table document is missing field {exc.args[0]!r}") from None
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise InputFormatError(f"size must be a positive integer, got {size!r}")
    if not _is_index(one, size):
        raise InputFormatError(f"one must be an index below {size}, got {one!r}")
    add = _parse_matrix(obj.get("add"), size, "add")
    mul = _parse_matrix(obj.get("mul"), size, "mul")
    return TableRing(size=size, one=one, add=add, mul=mul)


def table_from_json(obj) -> TableRing:
    """The table ring of a decoded JSON document, which is left unchanged.

    The parse converts rows in place, so it gets copies of the outer `add` and `mul` lists.
    """
    if isinstance(obj, dict):
        obj = {**obj, **{key: obj[key][:] for key in ("add", "mul") if isinstance(obj.get(key), list)}}
    return _table_from_document(obj)


class _IntPool(dict):
    """JSON integer text -> int, parsed once: equal entries share one object.

    Its ``__getitem__`` is ``json.load``'s ``parse_int``.  A table of size n
    has at most n distinct entries but n^2 of them, and every int above 256
    would otherwise be a separate object; the lookup stays at C level.
    """

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def load_table_file(path: str) -> TableRing:
    # ValueError covers bad JSON, text that is not UTF-8 and an integer too
    # long to convert; RecursionError covers nesting too deep for the decoder
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_int=_IntPool().__getitem__)
    except (OSError, ValueError, RecursionError) as exc:
        raise InputFormatError(f"cannot read table file {path}: {exc}") from exc
    return _table_from_document(obj)


# ---------------------------------------------------------------------------
# decomposition


def _find_zero(t: TableRing) -> int:
    identity = tuple(range(t.size))
    for z in range(t.size):
        if t.add[z] == identity:
            return z
    raise NotAdditiveGroup("no additive identity found")


def decompose_table_ring(t: TableRing) -> Ring:
    """Split a table ring along primitive idempotents into prime fields.

    Factors are ordered by field size, ties broken by the smallest table
    index among the primitive idempotents, so the result is deterministic.
    Raises the specific construction error when the tables fail to describe
    a reduced commutative unital ring that is a product of prime fields.
    """
    zero = _find_zero(t)
    # The commutativity and inverse scan runs only when the split fails.  A
    # split that succeeds proves both: its round trip makes the injective
    # iso a homomorphism into the product of fields, so x+y and y+x (and xy
    # and yx) have one image and are one index.  The image is a finite
    # subset of a finite group closed under addition, hence a subgroup: it
    # holds -iso[x] = iso[y], and x+y maps to 0 = iso[zero] (row zero is
    # the identity), so x+y is zero.  A table the scan rejects thus never
    # splits, and on a failed split the scan's error, if any, is the one
    # raised, as when the scan ran first.
    try:
        return _split(t, zero)
    except RingConstructionError as exc:
        rejection = exc
    _check_commutative_group(t, zero)
    raise rejection


def _check_commutative_group(t: TableRing, zero: int) -> None:
    """Raise unless add is commutative with inverses and mul is commutative."""
    n = t.size
    add, mul = t.add, t.mul
    # commutativity compares each row with its column, read off one transpose
    columns = tuple(zip(*add))
    for x in range(n):
        if add[x] != columns[x]:
            raise NotAdditiveGroup(f"addition is not commutative at row {x}")
        if zero not in add[x]:
            raise NotAdditiveGroup(f"element {x} has no additive inverse")
    columns = tuple(zip(*mul))
    for x in range(n):
        if mul[x] != columns[x]:
            # rows before x agree with their columns, so every mismatch in
            # row x lies right of the diagonal: its first is the first pair
            # (x, y), y > x, of a row-major scan
            y = next(y for y in range(x + 1, n) if mul[x][y] != columns[x][y])
            raise NotCommutative((x, y))


# Consecutive coordinates share one code while their residues number at most
# this many; a larger prime gets a code of its own.
_CODE_RESIDUES = 128


def _code_table(radices: list[int], op) -> list[list[int]]:
    """op, coordinatewise modulo radices, on mixed-radix codes (last coordinate fastest)."""
    table = [[0]]
    for q in radices:
        residues = range(q)
        own = [[op(a, b) % q for b in residues] for a in residues]
        table = [[a * q + b for a in high for b in low] for high in table for low in own]
    return table


def _codes(qs: tuple[int, ...], iso: list[tuple[int, ...]]) -> list[tuple]:
    """(c, shift, scale) for each packed code of the coordinates.

    c[x] is the code of element x; shift[a] and scale[a] are the tuples of
    the codes of a + c[y] and a * c[y] over every y.
    """
    groups: list[list[int]] = []
    for i, q in enumerate(qs):
        if groups and math.prod(qs[j] for j in groups[-1]) * q <= _CODE_RESIDUES:
            groups[-1].append(i)
        else:
            groups.append([i])
    codes = []
    for group in groups:
        c = [0] * len(iso)
        for i in group:
            c = [v * qs[i] + coords[i] for v, coords in zip(c, iso)]
        # a ring with a coordinate has at least two elements, so gather
        # returns a tuple
        gather = operator.itemgetter(*c)
        radices = [qs[i] for i in group]
        shift = list(map(gather, _code_table(radices, operator.add)))
        scale = list(map(gather, _code_table(radices, operator.mul)))
        codes.append((c, shift, scale))
    return codes


def _split(t: TableRing, zero: int) -> Ring:
    """The decomposition proper, for tables whose add row zero is the identity."""
    n = t.size
    add, mul = t.add, t.mul
    if mul[t.one] != tuple(range(n)):
        raise NotUnital(f"index {t.one} is not a multiplicative identity")
    for x in range(n):
        if x != zero and mul[x][x] == zero:
            raise NotReduced(x)

    idempotents = [x for x in range(n) if mul[x][x] == x]
    primitives = []
    for e in idempotents:
        if e == zero:
            continue
        if all(mul[e][f] in (zero, e) for f in idempotents):
            primitives.append(e)

    # orthogonality and completeness of the primitive family
    for i, e in enumerate(primitives):
        for f in primitives[i + 1:]:
            if mul[e][f] != zero:
                raise FactorNotField((e, f))
    total = zero
    for e in primitives:
        total = add[total][e]
    if total != t.one:
        raise FactorNotField(f"primitive idempotents sum to {total}, not the identity")

    factors = []
    for e in primitives:
        members = sorted(set(mul[e][x] for x in range(n)))
        q = len(members)
        if not _is_prime(q):
            # a field factor of non-prime order (such as F_4) is out of scope
            inverses_ok = True
            for m in members:
                if m == zero:
                    continue
                if not any(mul[m][x] == e for x in members):
                    inverses_ok = False
                    break
            if inverses_ok:
                raise FactorNotPrimeField(q)
            raise FactorNotField(e)
        # walk the additive multiples of e; a prime-order factor must be Z_q
        multiples = {zero: 0}
        cur = zero
        for m in range(1, q):
            cur = add[cur][e]
            multiples[cur] = m
        if set(multiples) != set(members):
            raise FactorNotField(e)
        factors.append((q, e, multiples))

    factors.sort(key=lambda item: (item[0], item[1]))
    qs = tuple(q for q, _, _ in factors)

    iso = [tuple(multiples[mul[e][x]] for _, e, multiples in factors) for x in range(n)]
    if len(set(iso)) != n:
        raise DecompositionMismatch("coordinate map is not injective")

    # round trip: the tables must agree with coordinatewise arithmetic, a
    # whole row at a time.  Consecutive coordinates are packed into one
    # mixed-radix code (_codes); a code is a bijection on its coordinates, so
    # a row agrees in every coordinate exactly when it agrees in every code.
    # With c[x] the code of x, row x of add agrees when c[add[x][y]] is the
    # code of c[x] + c[y] for every y: gathering c at the row's entries gives
    # shift[c[x]].  Likewise mul with scale.  Each row is gathered in C, one
    # itemgetter per table, and compared tuple against tuple.  A table of
    # size 1 has no coordinates, so its one-entry rows (whose itemgetter
    # would return a bare item) are never compared.
    codes = _codes(qs, iso)
    for x in range(n):
        arow, mrow = add[x], mul[x]
        gather_add, gather_mul = operator.itemgetter(*arow), operator.itemgetter(*mrow)
        if all(gather_add(c) == shift[c[x]] and gather_mul(c) == scale[c[x]] for c, shift, scale in codes):
            continue
        # the first row that disagrees: name its first bad entry, add before mul
        ix = iso[x]
        for y in range(n):
            iy = iso[y]
            if iso[arow[y]] != tuple((a + b) % q for a, b, q in zip(ix, iy, qs)):
                raise DecompositionMismatch((x, y, "add"))
            if iso[mrow[y]] != tuple((a * b) % q for a, b, q in zip(ix, iy, qs)):
                raise DecompositionMismatch((x, y, "mul"))

    return Ring(qs=qs, table_iso=tuple(iso))
