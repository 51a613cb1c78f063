"""Finite reduced commutative rings in coordinate form.

Every finite reduced commutative ring treated here is a product of prime
fields F_q1 x ... x F_qk.  Elements are coordinate tuples, ideals are
determined by the set of coordinates on which they are allowed to be
nonzero, and all graph and topology work downstream runs on those
supports, stored as bitmask ints.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from collections.abc import Iterable, Iterator
from typing import NamedTuple

from .errors import (
    InputFormatError,
    NotSquarefree,
    RingConstructionError,
    TooManyElements,
    TooManyFactors,
)

DEFAULT_MAX_FACTORS = 20
ELEMENT_CAP = 10**6
# the largest modulus or prime factor accepted, at most ~16,000 trial divisions
FACTOR_BOUND = 10**9


def env_int(name: str, default: int) -> int:
    """A positive integer setting from the environment; any other value is an input error."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputFormatError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise InputFormatError(f"{name} must be at least 1, got {raw!r}")
    return value


# ---------------------------------------------------------------------------
# support masks
#
# A support is a bitmask int: bit i set means coordinate i (0-based) may be
# nonzero.  Ideals, subsets of Min(R) and graph classes all carry masks.
# Rendering is 1-based to match the usual I_{1,3} notation.


def iter_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """The nonempty submasks of `mask`, in ascending order."""
    sub = 0
    while sub := (sub - mask) & mask:
        yield sub


# A set of masks is one int whose bit m stands for mask m, so one big-int
# operation acts on every subset of the k coordinates at once.


@functools.cache
def _lattice(k: int) -> tuple[int, tuple[int, ...], int]:
    """Constants for sets of masks over k coordinates.

    Returns the number of bytes that hold such a set (at least one), the
    sets HAS_i of masks with bit i set, and the set of proper nonempty
    masks.
    """
    size = 1 << k
    has = []
    for i in range(k):
        step = 1 << i
        x = ((1 << step) - 1) << step  # masks step .. 2 * step - 1
        width = 2 * step
        while width < size:
            x |= x << width
            width *= 2
        has.append(x)
    classes = (1 << (size - 1)) - 2  # bits 1 .. full - 1
    return max(size >> 3, 1), tuple(has), classes


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _closed_down(has: tuple[int, ...], bits: int) -> int:
    """The set `bits` with every submask of its members added.

    One shift-and-OR per coordinate: a mask with bit i passes itself on to
    the mask without it.
    """
    for i, h in enumerate(has):
        bits |= (bits & h) >> (1 << i)
    return bits


# byte b with its eight bits in reverse order
_BIT_REVERSED = bytes(sum((b >> j & 1) << (7 - j) for j in range(8)) for b in range(256))


def _reversed(lat: tuple[int, tuple[int, ...], int], bits: int) -> int:
    """The set `bits` with each member m replaced by full ^ m.

    That reverses the 2^k bits of the set: reverse the bits of each byte,
    then read the bytes in the other order.  A set narrower than a byte
    (k < 3) is reversed as a whole byte and shifted back down.
    """
    nbytes, has, _ = lat
    flipped = int.from_bytes(bits.to_bytes(nbytes, "little").translate(_BIT_REVERSED), "big")
    return flipped >> (8 * nbytes - (1 << len(has)))


@functools.cache
def render_support(mask: int) -> str:
    inside = ",".join(str(i + 1) for i in iter_bits(mask))
    return "{" + inside + "}"


# ---------------------------------------------------------------------------
# ring specifications


class SquarefreeModulus(NamedTuple):
    """Z_n for squarefree n; factors are listed in ascending order."""

    n: int


class _PrimeFactors(NamedTuple):
    primes: tuple[int, ...]


class PrimeFactors(_PrimeFactors):
    """An explicit product of prime fields, in the given coordinate order."""

    __slots__ = ()

    def __new__(cls, primes: Iterable[int]):
        return super().__new__(cls, tuple(primes))


class TableRing(NamedTuple):
    """A ring given by addition and multiplication tables over indices 0..size-1."""

    size: int
    one: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


RingSpec = SquarefreeModulus | PrimeFactors | TableRing


# ---------------------------------------------------------------------------
# elements and ideals


def _read_only(self, name: str, *value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


class Element(NamedTuple):
    """A ring element as its coordinate tuple; `Ring.label` renders it."""

    coords: tuple[int, ...]

    @property
    def support_mask(self) -> int:
        return sum(1 << i for i, c in enumerate(self.coords) if c)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class Ideal:
    """An ideal of a product of fields: all elements supported inside `mask`."""

    __slots__ = ("mask",)
    __setattr__ = __delattr__ = _read_only

    def __init__(self, mask: int):
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other: object) -> bool:
        return self.mask == other.mask if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.mask,))

    def __repr__(self) -> str:
        return f"Ideal(mask={self.mask!r})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__, as slots cannot be assigned
        return self.__class__, (self.mask,)

    def render(self, ring: "Ring | None" = None) -> str:
        if ring is not None and ring.modulus is not None:
            gen = math.prod(ring.qs[i] for i in iter_bits(ring.full_mask & ~self.mask))
            return f"({gen % ring.modulus})"
        return "I" + render_support(self.mask)

    def __str__(self) -> str:
        return self.render()


# ---------------------------------------------------------------------------
# the ring


class Ring:
    """A product of prime fields F_q1 x ... x F_qk.

    `modulus` is set when the ring came from a squarefree Z_n, in which case
    it must be the product of `qs` and `label` renders elements as residues
    by CRT.  `table_iso` maps table indices to coordinate tuples when the ring
    came from tables; it is not compared, so rings with equal factors are equal.
    `k` and `full_mask` are computed once, at construction: the engine reads
    them for every record.
    """

    __slots__ = ("qs", "modulus", "table_iso", "k", "full_mask", "_zero", "_crt_basis")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, qs: tuple[int, ...], modulus: int | None = None, table_iso: tuple | None = None):
        n = modulus
        if n is not None and n != math.prod(qs):
            raise ValueError(f"modulus {n} is not the product of the factors {qs}")
        # basis[i] = (n/qi) * inverse(n/qi mod qi), so coords map back by a dot product
        basis = () if n is None else tuple(n // q * pow(n // q, -1, q) % n for q in qs)
        k = len(qs)
        values = (qs, modulus, table_iso, k, (1 << k) - 1, Element((0,) * k), basis)
        for name, value in zip(Ring.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.qs, self.modulus) == (other.qs, other.modulus)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.qs, self.modulus))

    def __repr__(self) -> str:
        return f"Ring(qs={self.qs!r}, modulus={self.modulus!r}, table_iso={self.table_iso!r})"

    def __reduce__(self) -> tuple:
        return self.__class__, (self.qs, self.modulus, self.table_iso)

    @property
    def size(self) -> int:
        return math.prod(self.qs)

    def describe(self) -> dict:
        """JSON-able descriptor: the factors in coordinate order.

        A modulus or a table gives them in ascending order, but `PrimeFactors`
        keeps its own, so two orders of one ring describe differently.
        """
        return {"kind": "product-of-prime-fields", "factors": list(self.qs)}

    # -- element constructors ------------------------------------------------

    def element(self, coords: Iterable[int]) -> Element:
        coords = tuple(coords)
        if len(coords) != len(self.qs):
            raise self._length_error(coords)
        return Element(tuple(map(operator.mod, coords, self.qs)))

    def zero(self) -> Element:
        return self._zero

    def idempotent(self, i: int) -> Element:
        """e_i: the element with 1 in coordinate i and 0 elsewhere."""
        coords = tuple(1 if j == i else 0 for j in range(self.k))
        return self.element(coords)

    def from_residue(self, x: int) -> Element:
        if self.modulus is None:
            raise ValueError("ring was not built from a modulus")
        x %= self.modulus
        return self.element(tuple(x % q for q in self.qs))

    def label(self, a: Element) -> str:
        """How `a` prints: its residue for a ring built from a modulus, else its coordinates."""
        if self.modulus is None:
            return str(a)
        return str(sum(map(operator.mul, a.coords, self._crt_basis)) % self.modulus)

    def _length_error(self, *coord_tuples: tuple[int, ...]) -> ValueError:
        got = ", ".join(str(len(coords)) for coords in coord_tuples)
        return ValueError(f"expected {len(self.qs)} coordinates, got {got}")

    # -- arithmetic ------------------------------------------------------------

    def mul(self, a: Element, b: Element) -> Element:
        if not len(a.coords) == len(b.coords) == len(self.qs):
            raise self._length_error(a.coords, b.coords)
        # disjoint supports, most of the ideal product scan: an integer
        # product of 0 is 0 modulo every q, so no reduction is needed
        if not any(map(operator.mul, a.coords, b.coords)):
            return self._zero
        coords = tuple(map(operator.mod, map(operator.mul, a.coords, b.coords), self.qs))
        return Element(coords) if any(coords) else self._zero


# ---------------------------------------------------------------------------
# construction


def factor_squarefree(n: int) -> list[int]:
    """Trial-division factorization, insisting on squarefreeness."""
    if n < 2:
        raise RingConstructionError(f"modulus must be at least 2, got {n}")
    if n > FACTOR_BOUND:
        raise RingConstructionError(f"modulus {n} is above the 10^9 factorization bound")
    primes = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                raise NotSquarefree(n, d)
            primes.append(d)
        else:
            d += 1 if d == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def build_ring(spec: RingSpec, max_factors: int = DEFAULT_MAX_FACTORS) -> Ring:
    """Build the coordinate form of the ring described by `spec`.

    This is the one place the factor count is checked, for every kind of
    spec; a `Ring` built directly is trusted.  The zero ring (no factors,
    say a table of size 1) is rejected here.  Fields and Z_2 are accepted;
    graph constructors are where a ring without zero divisors gets rejected.
    """
    if isinstance(spec, SquarefreeModulus):
        qs = tuple(sorted(factor_squarefree(spec.n)))
        ring = Ring(qs=qs, modulus=spec.n)
    elif isinstance(spec, PrimeFactors):
        for p in spec.primes:
            if p > FACTOR_BOUND:
                raise RingConstructionError(f"factor {p} is above the 10^9 factorization bound")
            if not _is_prime(p):
                raise RingConstructionError(f"factor {p} is not prime")
        ring = Ring(qs=tuple(spec.primes))
    elif isinstance(spec, TableRing):
        from .tables import decompose_table_ring

        ring = decompose_table_ring(spec)
    else:
        raise RingConstructionError(f"unsupported ring specification {spec!r}")
    if ring.k == 0:
        raise RingConstructionError("a ring needs at least one prime factor; the zero ring has none")
    if ring.k > max_factors:
        raise TooManyFactors(ring.k, max_factors)
    return ring


# ---------------------------------------------------------------------------
# annihilators and ideals


def annihilator_element(ring: Ring, a: Element) -> Ideal:
    """Ann(a) = everything supported off the support of a."""
    return Ideal(ring.full_mask & ~a.support_mask)


def enumerate_ideals(ring: Ring) -> list[Ideal]:
    """All 2^k ideals in mask order: the zero ideal first, the whole ring last."""
    return [Ideal(m) for m in range(1 << ring.k)]


def annihilating_ideals(ring: Ring) -> list[Ideal]:
    """The ideals other than 0 and R, in mask order: each has a nonzero annihilator."""
    return [Ideal(m) for m in range(1, ring.full_mask)]


def ideal_product(ring: Ring, a: Ideal, b: Ideal) -> Ideal:
    # IJ = I n J when every factor is a field
    return Ideal(a.mask & b.mask)


def elements_of_ideal(ring: Ring, ideal: Ideal) -> list[Element]:
    """Explicit member list in lex order, for small rings and oracle work."""
    size = math.prod(ring.qs[i] for i in iter_bits(ideal.mask))
    if size > ELEMENT_CAP:
        raise TooManyElements(size, ELEMENT_CAP)
    ranges = [range(q) if ideal.mask >> i & 1 else (0,) for i, q in enumerate(ring.qs)]
    return list(map(Element, itertools.product(*ranges)))
