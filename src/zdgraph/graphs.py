"""Zero-divisor and annihilating-ideal graphs in compressed form.

Vertices of the zero-divisor graph are the nonzero zero divisors; vertices
of the ideal graph are the nonzero ideals with nonzero annihilator.  In both
graphs adjacency means the supports are disjoint, so the graph is stored one
node per support class with a multiplicity, and every metric runs on that
compressed form.  Copies inside one class are pairwise non-adjacent and
interchangeable, which is what makes the compression exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .errors import Disconnected, EmptyGraph, InternalInconsistency
from .rings import (
    Element,
    Ideal,
    Ring,
    _closed_down,
    _lattice,
    _lowest,
    _reversed,
    iter_bits,
    render_support,
)

GAMMA = "gamma"
AG = "ag"

Infinite = math.inf
DOMINATION_NODE_BUDGET = 500_000


class Vertex(NamedTuple):
    """One vertex of a compressed graph: a support class and a copy index."""

    mask: int
    copy: int = 0

    def render(self) -> str:
        s = "S=" + render_support(self.mask)
        return s if self.copy == 0 else f"{s}#{self.copy}"


class GraphView:
    """A compressed graph: classes are support masks, adjacency is disjointness.

    The classes are the masks 1 .. full - 1 in order, so class i has mask i + 1.
    Both graphs are Γ of a product of fields of the given `sizes`: the ring's
    own for Γ, and F_2^k for 𝔸𝔾, whose vertex on a support is its one ideal.
    """

    def __init__(self, kind: str, ring: Ring):
        if ring.k < 2:
            raise EmptyGraph(
                f"ring with factors {ring.qs} has no zero divisors, so the {kind} graph is empty"
            )
        self.kind = kind
        self.ring = ring
        self.full_mask = full = ring.full_mask
        self.classes = range(1, full)
        self.sizes: tuple[int, ...] = ring.qs if kind == GAMMA else (2,) * ring.k
        # the coordinates of size 2: a class has one vertex exactly when its
        # mask lies inside them
        self.twos = sum(1 << i for i, q in enumerate(self.sizes) if q == 2)

    def weight(self, mask: int) -> int:
        """The class of mask m has prod(q_i - 1) elements over the bits i of m.

        A coordinate of size 2 adds a factor 1, so only the others are read.
        """
        if not 0 < mask < self.full_mask:
            raise ValueError(f"mask {mask:b} is not a vertex class of this graph")
        w = 1
        for i in iter_bits(mask & ~self.twos):
            w *= self.sizes[i] - 1
        return w

    def vertex_count(self) -> int:
        # every element less the units and zero
        return math.prod(self.sizes) - math.prod(q - 1 for q in self.sizes) - 1

    def edge_count(self) -> int:
        # ordered pairs of elements with disjoint supports: at each coordinate
        # one of the two is zero, 2q - 1 ways; less the pairs with a zero
        # element, then each edge once
        zero_pairs = 2 * math.prod(self.sizes) - 1
        return (math.prod(2 * q - 1 for q in self.sizes) - zero_pairs) // 2

    def degree_of_mask(self, mask: int) -> int:
        """Number of neighbors: everything supported inside the complement."""
        return math.prod(self.sizes[i] for i in iter_bits(self.full_mask & ~mask)) - 1

    def vertices(self) -> Iterator[Vertex]:
        for m in self.classes:
            for c in range(self.weight(m)):
                yield Vertex(m, c)

    def check_vertex(self, v: Vertex) -> None:
        # every class has a copy 0, so that needs only the class range
        if v.copy == 0 and 0 < v.mask < self.full_mask:
            return
        if not 0 <= v.copy < self.weight(v.mask):
            raise ValueError(f"copy {v.copy} out of range for class {v.render()}")


def build_gamma(ring: Ring) -> GraphView:
    return GraphView(GAMMA, ring)


def build_ag(ring: Ring) -> GraphView:
    return GraphView(AG, ring)


# ---------------------------------------------------------------------------
# vertex <-> element / ideal


def gamma_vertex(ring: Ring, a: Element) -> Vertex:
    """Locate a zero divisor in the compressed graph without enumerating it."""
    mask = a.support_mask
    if mask == 0 or mask == ring.full_mask:
        raise ValueError(f"{ring.label(a)} is not a nonzero zero divisor")
    rank = 0
    for i in iter_bits(mask):
        rank = rank * (ring.qs[i] - 1) + (a.coords[i] - 1)
    return Vertex(mask, rank)


def vertex_element(ring: Ring, v: Vertex) -> Element:
    """Inverse of gamma_vertex: decode the copy rank back into coordinates."""
    coords = [0] * ring.k
    rank = v.copy
    for i in reversed(list(iter_bits(v.mask))):
        r = ring.qs[i] - 1
        coords[i] = rank % r + 1
        rank //= r
    return ring.element(tuple(coords))


def vertex_label(G: GraphView, v: Vertex) -> str:
    if G.kind == GAMMA:
        return G.ring.label(vertex_element(G.ring, v))
    return Ideal(v.mask).render(G.ring)


# ---------------------------------------------------------------------------
# distance, eccentricity, radius


def _neighbors(lat: tuple[int, tuple[int, ...], int], bits: int) -> int:
    """The classes disjoint from at least one class in the set `bits`.

    Reversing the set's 2^k bits complements every mask at once (full - m
    == full ^ m); the downward closure is one shift-and-OR per coordinate.
    """
    _, has, classes = lat
    return _closed_down(has, _reversed(lat, bits)) & classes


def _levels(lat: tuple[int, tuple[int, ...], int], start: int, usable: int, stop: int) -> list[int]:
    """BFS levels over the `usable` classes from `start`, as bitsets.

    Each level is `_neighbors` of the last, less the classes seen.  The walk
    ends at a level that meets `stop`, once every usable class is seen, or
    at an empty level, which it keeps.
    """
    levels = [start & usable]
    seen = levels[0]
    while levels[-1] and not levels[-1] & stop and seen != usable:
        levels.append(_neighbors(lat, levels[-1]) & usable & ~seen)
        seen |= levels[-1]
    return levels


def class_distances(G: GraphView, src: int) -> list[int]:
    """BFS levels from class `src`: bit m of level d is set when class m is d away.

    On a disconnected graph the last level is empty.
    """
    lat = _lattice(G.ring.k)
    return _levels(lat, 1 << src, lat[2], 0)


def distance(G: GraphView, u: Vertex, v: Vertex) -> int:
    G.check_vertex(u)
    G.check_vertex(v)
    if u == v:
        return 0
    if u.mask & v.mask == 0:
        return 1
    if u.mask == v.mask:
        # distinct copies are never adjacent; go out to the complement and back
        return 2
    for d, level in enumerate(class_distances(G, u.mask)):
        if level >> v.mask & 1:
            return d
    raise Disconnected((u.render(), v.render()))


def _class_depth(G: GraphView, mask: int) -> int:
    """The last BFS level from the class: its eccentricity among other classes."""
    levels = class_distances(G, mask)
    unreached = _lattice(G.ring.k)[2] & ~functools.reduce(operator.or_, levels)
    if unreached:
        raise Disconnected((Vertex(mask).render(), Vertex(_lowest(unreached)).render()))
    return len(levels) - 1


def class_eccentricity(G: GraphView, mask: int) -> int:
    """Eccentricity shared by every copy in the class."""
    weight = G.weight(mask)
    depth = _class_depth(G, mask)
    # copies are two apart, through the complement class
    return max(depth, 2) if weight >= 2 else depth


def eccentricity(G: GraphView, u: Vertex) -> int:
    G.check_vertex(u)
    return class_eccentricity(G, u.mask)


def _eccentricities(G: GraphView) -> set[int]:
    """The eccentricities the classes take, from one BFS per class size.

    Permuting coordinates keeps masks disjoint, so a class's BFS depth
    depends only on its size, and the classes of size r share the depth of
    (1 << r) - 1.  Copies of a class are two apart (its complement is a
    neighbor), so a class of weight 2 or more is at least 2 from itself.
    A class has one copy when all its coordinates have size 2.  With t such
    coordinates, the sizes 1 .. min(t, k - 1) occur with one copy, and when
    t < k every size 1 .. k - 1 occurs with copies.
    """
    k, t = G.ring.k, G.twos.bit_count()
    depth = [0] + [_class_depth(G, (1 << r) - 1) for r in range(1, k)]
    single = {depth[r] for r in range(1, min(t, k - 1) + 1)}
    return single | ({max(depth[r], 2) for r in range(1, k)} if t < k else set())


def radius(G: GraphView) -> int:
    return min(_eccentricities(G))


def diameter(G: GraphView) -> int:
    return max(_eccentricities(G))


# ---------------------------------------------------------------------------
# local structure


def degree(G: GraphView, u: Vertex) -> int:
    G.check_vertex(u)
    return G.degree_of_mask(u.mask)


def is_pendant(G: GraphView, u: Vertex) -> bool:
    return degree(G, u) == 1


def is_triangle_vertex(G: GraphView, u: Vertex) -> tuple[bool, tuple[Vertex, Vertex] | None]:
    """Whether u lies on a triangle, with the two partner vertices if so.

    Same-class copies are never adjacent, so a triangle needs three pairwise
    disjoint classes; if any triangle exists, one exists whose second corner
    is a single coordinate, so the scan below is exhaustive.
    """
    G.check_vertex(u)
    full = G.full_mask
    for j in iter_bits(full & ~u.mask):
        t = 1 << j
        rest = full & ~(u.mask | t)
        if rest:
            return True, (Vertex(t, 0), Vertex(rest, 0))
    return False, None


def is_triangulated(G: GraphView) -> tuple[bool, Vertex | None]:
    """True when every vertex lies on a triangle; otherwise the lowest failing vertex.

    A class lies on a triangle when it is disjoint from some class of two
    or more coordinates, which splits into the other two corners.
    """
    lat = _lattice(G.ring.k)
    singles = sum(1 << (1 << i) for i in range(G.ring.k))
    off = lat[2] & ~_neighbors(lat, lat[2] & ~singles)
    return (True, None) if not off else (False, Vertex(_lowest(off), 0))


def orthogonal(G: GraphView, u: Vertex, v: Vertex) -> bool:
    """Adjacent with no common neighbor (the edge is not in any triangle)."""
    G.check_vertex(u)
    G.check_vertex(v)
    # a common neighbor is any class inside the complement of u | v
    return u.mask & v.mask == 0 and u.mask | v.mask == G.full_mask


# ---------------------------------------------------------------------------
# shortest cycle through a pair (two vertex-disjoint paths by two searches)


class GirthResult(NamedTuple):
    """Shortest cycle through a vertex pair; length is inf when none exists.

    The two searches are always exact, so `bound_used` is always 2 and
    `escalated` always False.  Both stay as fields because the benchmark
    trace reads them.
    """

    length: float
    cycle: tuple[Vertex, ...] | None
    bound_used: int = 2
    escalated: bool = False


def _shortest_path(
    lat: tuple[int, tuple[int, ...], int], start: int, near: int, usable: int
) -> list[int] | None:
    """The classes of a shortest path between two vertices, by bitset BFS.

    `start` and `near` are the classes adjacent to either end, and only
    `usable` classes are walked.  The path takes the lowest mask at each
    step.  None when no path passes through a class.
    """
    levels = _levels(lat, start, usable, near)
    if not levels[-1] & near:
        return None
    path = [_lowest(levels.pop() & near)]
    while levels:
        path.append(_lowest(levels.pop() & _neighbors(lat, 1 << path[-1])))
    return path[::-1]


def girth_through(G: GraphView, u: Vertex, v: Vertex) -> GirthResult:
    """Length of the shortest simple cycle through both u and v.

    That is the least total length of two internally vertex-disjoint u-v
    paths.  Suurballe's method finds them with two searches: a shortest
    first path, then a shortest path in the residual graph, in which a
    class keeps the copies left after u, v and the first path, and the
    second path may also walk the first one backwards.  In these graphs a
    backward step never helps, so both searches are bitset BFS runs on the
    subset lattice, the second one with the first path's spent classes
    masked out:

    - u and v adjacent: the first path is the edge u-v, which the second
      path may not reuse.  Walking the edge back only returns to u.
    - masks that meet but miss a coordinate: the first path is u-c-v, and
      walking it back only returns to u or leaves from v.
    - masks that meet and cover every coordinate: no vertex is next to
      both u and v, and each neighbor of u is next to each neighbor of v.
      So two disjoint u-v paths exist exactly when u and v each have two
      neighbors, and then both can have length 3; the second search finds
      one around the first path.
    """
    G.check_vertex(u)
    G.check_vertex(v)
    if u == v:
        raise ValueError("girth_through needs two distinct vertices")

    mu, mv = u.mask, v.mask
    lat = _lattice(G.ring.k)
    start, near_v = _neighbors(lat, 1 << mu), _neighbors(lat, 1 << mv)

    def left(m: int) -> int:
        return G.weight(m) - (m == mu) - (m == mv)

    usable = lat[2]
    for m in (mu, mv):
        if left(m) == 0:
            usable &= ~(1 << m)
    first = [] if mu & mv == 0 else _shortest_path(lat, start, near_v, usable)
    if first is None:
        return GirthResult(Infinite, None)
    for m in first:
        if left(m) == 1:
            usable &= ~(1 << m)
    second = _shortest_path(lat, start, near_v, usable)
    if second is None:
        return GirthResult(Infinite, None)
    length = len(first) + len(second) + 2

    # allocate distinct copies per class across the whole cycle
    next_copy: dict[int, int] = {}

    def take_copy(mask: int) -> Vertex:
        c = next_copy.get(mask, 0)
        while (mask == u.mask and c == u.copy) or (mask == v.mask and c == v.copy):
            c += 1
        next_copy[mask] = c + 1
        return Vertex(mask, c)

    sides = [[take_copy(m) for m in path] for path in (first, second)]
    cycle = (u, *sides[0], v, *reversed(sides[1]))

    if len(set(cycle)) != len(cycle):
        raise InternalInconsistency("girth witness repeats a vertex")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a.mask & b.mask != 0:
            raise InternalInconsistency("girth witness contains a non-edge")
    if len(cycle) != length:
        raise InternalInconsistency("girth witness length disagrees with the two searches")
    return GirthResult(float(length), cycle)


# ---------------------------------------------------------------------------
# domination


class DominationResult(NamedTuple):
    size: int
    witness: tuple[Vertex, ...]
    certified: bool
    total: bool
    nodes: int
    root_lower_bound: int


def domination(G: GraphView, total: bool = False) -> DominationResult:
    """Exact minimum (total) dominating set size: two bounds, then one round of single copies.

    One copy of a class dominates every disjoint class.  Copies are never
    adjacent, so a class dominates itself only when it has one copy, and
    never for the total variant.  A choice set is one class bitset, one copy
    of each class in it.

    The upper bound is one copy of each single-coordinate class.  The lower
    bound packs the classes missing one coordinate that the empty choice
    leaves uncovered and that pairwise conflict, so that no one choice covers
    two of them.  From three factors on, and for the total variant, all k
    conflict and the bounds meet; `InternalInconsistency` names them if not.
    Otherwise k = 2, and the rounds run the costs from lb up to 1: each tries
    every set of that many classes in class order, one node per set, and the
    first dominating set is the answer.  Taking every copy of a class costs
    its weight, at least 2, so below the upper bound every choice is one
    copy of one class.
    """
    full = G.full_mask
    k = G.ring.k
    lat = _lattice(k)
    # bit m is set when class m has one copy: m lies inside the size-2 coordinates
    weight_one = _closed_down(lat[1], 1 << G.twos) & lat[2]

    def uncovered(one: int) -> int:
        covered = _neighbors(lat, one)
        if not total:
            covered |= one & weight_one
        return lat[2] & ~covered

    def conflict(ma: int, mb: int) -> bool:
        return (ma | mb) == full and (total or (ma & mb) != 0)

    left = uncovered(0)
    pack: list[int] = []
    for m in sorted(full ^ (1 << i) for i in range(k)):
        if left >> m & 1 and all(conflict(m, p) for p in pack):
            pack.append(m)
    if len(pack) < k and k > 2:
        raise InternalInconsistency(
            f"domination bounds differ at {k} factors: lower bound {len(pack)}, upper bound {k}"
        )

    # one copy of each single-coordinate class
    best = sum(1 << (1 << b) for b in range(k))
    nodes = 0
    for cost in range(len(pack), k):
        found = None
        for picked in itertools.combinations(G.classes, cost):
            nodes += 1
            if nodes > DOMINATION_NODE_BUDGET:
                break
            one = sum(1 << m for m in picked)
            if found is None and not uncovered(one):
                found = one
        best = found if found is not None else best
        if found is not None or nodes > DOMINATION_NODE_BUDGET:
            break

    witness = [Vertex(m, 0) for m in iter_bits(best)]
    _validate_domination(G, witness, total)
    return DominationResult(
        size=len(witness),
        witness=tuple(witness),
        certified=nodes <= DOMINATION_NODE_BUDGET,
        total=total,
        nodes=nodes,
        root_lower_bound=len(pack),
    )


def _validate_domination(G: GraphView, witness: list[Vertex], total: bool) -> None:
    """Raise unless the witness dominates every class.

    The classes next to a chosen mask t are the submasks of full ^ t, so
    one downward closure of those complements finds them all.  It does not
    go through `_neighbors`, which the search itself uses.
    """
    _, has, classes = _lattice(G.ring.k)
    full = G.full_mask
    counts: dict[int, int] = {}
    for v in witness:
        counts[v.mask] = counts.get(v.mask, 0) + 1
    covered = _closed_down(has, sum(1 << (full ^ t) for t in counts))
    if not total:
        covered |= sum(1 << m for m, c in counts.items() if c == G.weight(m))
    missed = classes & ~covered
    if missed:
        flavor = "totally dominated" if total else "dominated"
        raise InternalInconsistency(f"class {render_support(_lowest(missed))} not {flavor}")
