"""Minimal primes, hull-kernel topology, and annihilator-defined primes.

The ambient space is Min(R), the minimal primes of the ring.  For a product
of k prime fields these are P_i = {a : a_i = 0}, and the topology induced by
the base of open sets {coz(a) : a in R} is computed from that base rather
than assumed; on these rings it comes out discrete, and the tests pin that
down.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import NoAnnihilatingIdeals
from .rings import (
    Element,
    Ideal,
    Ring,
    _closed_down,
    _lattice,
    _lowest,
    annihilating_ideals,
    annihilator_element,
    iter_bits,
    render_support,
    submasks,
)


@dataclass(frozen=True)
class MinPrime:
    """P_index: the minimal prime of everything vanishing at one coordinate."""

    index: int
    ideal: Ideal

    def render(self, ring: Ring | None = None) -> str:
        if ring is not None and ring.modulus is not None:
            return self.ideal.render(ring)
        return f"P{self.index + 1}"


@dataclass(frozen=True)
class TopSet:
    """A subset of Min(R) as a mask over prime indices, with the size of the space."""

    mask: int
    space_size: int

    def union(self, other: "TopSet") -> "TopSet":
        return TopSet(self.mask | other.mask, self.space_size)

    def intersect(self, other: "TopSet") -> "TopSet":
        return TopSet(self.mask & other.mask, self.space_size)

    def is_subset(self, other: "TopSet") -> bool:
        return self.mask & ~other.mask == 0

    def is_empty(self) -> bool:
        return self.mask == 0

    def is_full(self) -> bool:
        return self.mask == (1 << self.space_size) - 1

    def render(self) -> str:
        return render_support(self.mask)


class PlaceStatus(str, Enum):
    FIXED_PLACE = "FixedPlace"
    ANTI_FIXED_PLACE = "AntiFixedPlace"
    NEITHER = "Neither"


@dataclass(frozen=True)
class BourbakiSet:
    """The primes that occur as Ann(x), each with a witness element."""

    primes: tuple[MinPrime, ...]
    witnesses: tuple[Element, ...]


def min_primes(ring: Ring) -> list[MinPrime]:
    full = ring.full_mask
    return [MinPrime(i, Ideal(full & ~(1 << i))) for i in range(ring.k)]


def cozero_set(ring: Ring, x: Element | Ideal) -> TopSet:
    """h^c(x): the primes that miss x, i.e. P_i with x_i != 0."""
    support = x.support_mask if isinstance(x, Element) else x.mask
    return TopSet(ring.full_mask & support, ring.k)


def zero_set(ring: Ring, x: Element | Ideal) -> TopSet:
    """h(x): the primes that contain x, i.e. P_i with x_i == 0."""
    return TopSet(ring.full_mask & ~cozero_set(ring, x).mask, ring.k)


def base_open_sets(ring: Ring) -> Iterable[TopSet]:
    """The base {coz(a) : a in R}, one representative per support.

    Every subset of coordinates is the support of some element (a sum of the
    matching idempotents), so the base is enumerated over supports instead of
    over all ring elements.
    """
    sub = full = ring.full_mask
    while True:
        yield TopSet(sub, ring.k)
        if sub == 0:
            break
        sub = (sub - 1) & full


def interior(ring: Ring, a: TopSet) -> TopSet:
    """Union of the base open sets contained in `a`."""
    out = 0
    for b in base_open_sets(ring):
        if b.is_subset(a):
            out |= b.mask
    return TopSet(out, ring.k)


def is_singleton(a: TopSet) -> bool:
    return a.mask != 0 and a.mask & (a.mask - 1) == 0


def is_isolated_point(ring: Ring, p: int) -> bool:
    """A point is isolated when its singleton is open."""
    single = TopSet(1 << p, ring.k)
    return interior(ring, single) == single


def kernel(ring: Ring, a: TopSet) -> Ideal:
    """Intersection of the primes in `a`; the whole ring when `a` is empty.

    P_i is supported off coordinate i, so the intersection drops every bit of `a`.
    """
    return Ideal(ring.full_mask & ~a.mask)


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
    ker = kernel(ring, TopSet(sum(1 << p.index for p in b.primes), ring.k))
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


@dataclass(frozen=True)
class RetractReport:
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

    Each closure is computed once.  `pre[t]` is the set of members whose
    closure is t, as a bitset.  For each member a, two sets of the members b
    above a are compared: `direct`, the b disjoint from a, which are the
    submasks of a's complement, and `closed`, the b whose closure is
    disjoint from a's, which is pre[t] gathered over the submasks t of the
    complement of a's closure, zero included.  An edge is preserved when
    the closures are disjoint and distinct.  For the identity closure, both
    walks cost O(3^k) over all members.
    """
    members = annihilating_ideals(ring)
    full = ring.full_mask
    phi = {I.mask: sz_closure(ring, I).mask for I in members}
    pre = [0] * (full + 1)
    for m, p in phi.items():
        pre[p] |= 1 << m

    failures = []
    for I in members:
        p = phi[I.mask]
        if (phi[p] if p in phi else sz_closure(ring, Ideal(p)).mask) != p:
            failures.append(f"closure of {I.render(ring)} is not fixed")
    unfixed = len(failures)

    mismatch = None
    for I in members:
        a, p = I.mask, phi[I.mask]
        above = -(2 << a)  # the masks above a
        direct = sum(1 << b for b in submasks(full & ~a)) & above
        closed = pre[0]
        for t in submasks(full & ~p):
            closed |= pre[t]
        closed &= above
        if mismatch is None and direct != closed:
            mismatch = (a, _lowest(direct ^ closed))
        for b in iter_bits(direct & (~closed | pre[p])):
            failures.append(f"edge {I.render(ring)}-{Ideal(b).render(ring)} not preserved")
    return RetractReport(
        is_identity=all(p == m for m, p in phi.items()),
        preserves_adjacency=len(failures) == unfixed,
        image_is_fixed=unfixed == 0,
        failures=tuple(failures),
        adjacency_mismatch=mismatch,
    )


def is_prime_ideal(ring: Ring, ideal: Ideal) -> bool:
    """I is prime exactly when the quotient is a domain: one missing coordinate."""
    missing = ring.full_mask & ~ideal.mask
    return missing != 0 and missing & (missing - 1) == 0


def maximal_annihilating(ring: Ring) -> list[Ideal]:
    """Maximal members of the annihilating-ideal family, by inclusion.

    The family is one set of masks.  Closing it downward marks every mask
    inside some member; a mask lies strictly inside a member when adding
    one missing bit leads to such a mark.  The maximal members are the
    members without that mark.
    """
    members = annihilating_ideals(ring)
    if not members:
        raise NoAnnihilatingIdeals(f"ring with factors {ring.qs} has no annihilating ideals")
    fmt, has, _ = _lattice(ring.k)
    family = bytearray(b"0" * (1 << ring.k))  # digit m stands for mask m
    for I in members:
        family[I.mask] = ord("1")
    inside = _closed_down(has, int(family[::-1], 2))
    strictly_inside = 0
    for i, h in enumerate(has):
        strictly_inside |= (inside & h) >> (1 << i)
    digits = format(strictly_inside, fmt)[::-1]
    return [I for I in members if digits[I.mask] == "0"]


def prime_annihilating(ring: Ring) -> list[Ideal]:
    members = annihilating_ideals(ring)
    if not members:
        raise NoAnnihilatingIdeals(f"ring with factors {ring.qs} has no annihilating ideals")
    return [I for I in members if is_prime_ideal(ring, I)]
