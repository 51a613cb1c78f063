"""Minimal primes, hull-kernel topology, and annihilator-defined primes.

The ambient space is Min(R), the minimal primes of the ring.  For a product
of k prime fields these are P_i = {a : a_i = 0}, and the topology induced by
the base of open sets {coz(a) : a in R} is computed from that base rather
than assumed; on these rings it comes out discrete, and the tests pin that
down.

A subset of Min(R) is a mask over prime indices, bit i for P_i.  The base
and the annihilating-ideal family are each one set of masks (see
`rings._lattice`), so an interior or the maximal annihilating ideals cost
O(k) big-int operations, and objects are built only for what is returned.
"""

from __future__ import annotations

from bisect import bisect
from enum import Enum
from typing import NamedTuple

from .errors import NoAnnihilatingIdeals
from .rings import (
    Element,
    Ideal,
    Ring,
    _closed_down,
    _lattice,
    annihilating_ideals,
    annihilator_element,
    iter_bits,
)


class MinPrime(NamedTuple):
    """P_index: the minimal prime of everything vanishing at one coordinate."""

    index: int
    ideal: Ideal

    def render(self, ring: Ring | None = None) -> str:
        if ring is not None and ring.modulus is not None:
            return self.ideal.render(ring)
        return f"P{self.index + 1}"


class PlaceStatus(str, Enum):
    FIXED_PLACE = "FixedPlace"
    ANTI_FIXED_PLACE = "AntiFixedPlace"
    NEITHER = "Neither"


class BourbakiSet(NamedTuple):
    """The primes that occur as Ann(x), each with a witness element."""

    primes: tuple[MinPrime, ...]
    witnesses: tuple[Element, ...]


def min_primes(ring: Ring) -> list[MinPrime]:
    full = ring.full_mask
    return [MinPrime(i, Ideal(full & ~(1 << i))) for i in range(ring.k)]


def cozero_set(ring: Ring, x: Element | Ideal) -> int:
    """h^c(x) as a mask over prime indices: the primes that miss x, i.e. P_i with x_i != 0."""
    support = x.support_mask if isinstance(x, Element) else x.mask
    return ring.full_mask & support


def zero_set(ring: Ring, x: Element | Ideal) -> int:
    """h(x) as a mask over prime indices: the primes that contain x, i.e. P_i with x_i == 0."""
    return ring.full_mask & ~cozero_set(ring, x)


def base_open_sets(ring: Ring) -> int:
    """The base {coz(a) : a in R} as a set of masks: bit m when some element has support m.

    Every subset of coordinates is the support of some element (a sum of the
    matching idempotents), so every mask is in the base.
    """
    return (2 << ring.full_mask) - 1


def interior(ring: Ring, a: int) -> int:
    """Union of the base open sets contained in the set of primes `a`.

    The base sets inside `a` are the members of the base among the submasks
    of `a`; coordinate i is in the union when one of them has bit i.
    """
    _, has, _ = _lattice(ring.k)
    inside = _closed_down(has, 1 << a) & base_open_sets(ring)
    return sum(1 << i for i, h in enumerate(has) if inside & h)


def is_singleton(a: int) -> bool:
    return a != 0 and a & (a - 1) == 0


def is_isolated_point(ring: Ring, p: int) -> bool:
    """A point is isolated when its singleton is open."""
    return interior(ring, 1 << p) == 1 << p


def kernel(ring: Ring, a: int) -> Ideal:
    """Intersection of the primes in `a`; the whole ring when `a` is empty.

    P_i is supported off coordinate i, so the intersection drops every bit of `a`.
    """
    return Ideal(ring.full_mask & ~a)


def bourbaki_primes(ring: Ring) -> BourbakiSet:
    """Primes of the form Ann(x).  Witness for P_i is the idempotent e_i.

    For k = 1 the zero ideal is the only minimal prime and Ann(1) = 0
    witnesses it, which the same idempotent rule produces.
    """
    primes = []
    witnesses = []
    for p in min_primes(ring):
        w = ring.idempotent(p.index)
        if annihilator_element(ring, w) == p.ideal:
            primes.append(p)
            witnesses.append(w)
    return BourbakiSet(tuple(primes), tuple(witnesses))


def fixed_place_status(ring: Ring) -> tuple[PlaceStatus, Ideal]:
    """Classify the ring by the intersection of its annihilator primes."""
    b = bourbaki_primes(ring)
    if not b.primes:
        return PlaceStatus.ANTI_FIXED_PLACE, Ideal(ring.full_mask)
    ker = kernel(ring, sum(1 << p.index for p in b.primes))
    if ker.mask == 0:
        return PlaceStatus.FIXED_PLACE, ker
    return PlaceStatus.NEITHER, ker


def sz_closure(ring: Ring, ideal: Ideal) -> Ideal:
    """kernel(hull(I)): the smallest strongly z-type ideal containing I.

    With finitely many minimal primes this is kernel of the zero set of I,
    which on these rings returns I itself; the identity is asserted by the
    verification suite rather than assumed here.
    """
    return kernel(ring, zero_set(ring, ideal))


class RetractReport(NamedTuple):
    """Whether I -> sz_closure(I) retracts the ideal graph onto its closed ideals.

    `failures` names the closures that are not fixed, then the edges that
    are not preserved.  `adjacency_mismatch` is the first pair of masks
    (a, b), a < b, whose closures are disjoint when they are not, or the
    other way round.
    """

    is_identity: bool
    preserves_adjacency: bool
    image_is_fixed: bool
    failures: tuple[str, ...]
    adjacency_mismatch: tuple[int, int] | None

    @property
    def is_retraction(self) -> bool:
        return self.preserves_adjacency and self.image_is_fixed


def retract_check(ring: Ring) -> RetractReport:
    """Check that I -> sz_closure(I) retracts the ideal graph onto itself.

    The members are the masks 0 < m < full, walked as ints; an `Ideal` is
    built only as `sz_closure`'s argument and in a failure message.  Each
    closure is computed once.  When the closure fixes both a and b,
    "a and b are disjoint" and "their closures are disjoint" are one test,
    and disjoint fixed members have distinct closures; so every edge that
    is not preserved, and every adjacency mismatch, has a moved member at
    one end.  A fixed member a compares the moved members above it, and a
    moved member every member above it.  An edge is preserved when the
    closures are disjoint and distinct.  That is O(2^k) closures plus
    O(2^k * moved) small-int tests, O(4^k) only when most members move.
    """
    full = ring.full_mask
    phi = {m: sz_closure(ring, Ideal(m)).mask for m in range(1, full)}

    failures = []
    for m, p in phi.items():
        if (phi[p] if p in phi else sz_closure(ring, Ideal(p)).mask) != p:
            failures.append(f"closure of {Ideal(m).render(ring)} is not fixed")
    unfixed = len(failures)

    moved = [m for m, p in phi.items() if p != m]
    mismatch = None
    for a, p in phi.items():
        above = range(a + 1, full) if p != a else moved[bisect(moved, a):]
        for b in above:
            q = phi[b]
            direct = a & b == 0
            if mismatch is None and direct != (p & q == 0):
                mismatch = (a, b)
            if direct and (p & q or p == q):
                failures.append(f"edge {Ideal(a).render(ring)}-{Ideal(b).render(ring)} not preserved")
    return RetractReport(
        is_identity=not moved,
        preserves_adjacency=len(failures) == unfixed,
        image_is_fixed=unfixed == 0,
        failures=tuple(failures),
        adjacency_mismatch=mismatch,
    )


def is_prime_ideal(ring: Ring, ideal: Ideal) -> bool:
    """I is prime exactly when the quotient is a domain: one missing coordinate."""
    return is_singleton(zero_set(ring, ideal))


def maximal_annihilating(ring: Ring) -> list[Ideal]:
    """Maximal members of the annihilating-ideal family, by inclusion.

    I_m is annihilating exactly when 0 < m < full, so the family is one set
    of masks.  Closing it downward marks every mask inside some member; a
    mask lies strictly inside a member when adding one missing bit leads to
    such a mark.  The maximal members are the members without that mark.
    """
    _, has, family = _lattice(ring.k)
    if not family:
        raise NoAnnihilatingIdeals(f"ring with factors {ring.qs} has no annihilating ideals")
    inside = _closed_down(has, family)
    strictly_inside = 0
    for i, h in enumerate(has):
        strictly_inside |= (inside & h) >> (1 << i)
    return [Ideal(m) for m in iter_bits(family & ~strictly_inside)]


def prime_annihilating(ring: Ring) -> list[Ideal]:
    members = annihilating_ideals(ring)
    if not members:
        raise NoAnnihilatingIdeals(f"ring with factors {ring.qs} has no annihilating ideals")
    return [I for I in members if is_prime_ideal(ring, I)]
