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
from dataclasses import dataclass
from typing import Iterator

from .errors import Disconnected, EmptyGraph, InternalInconsistency
from .rings import (
    Element,
    Ideal,
    Ring,
    _closed_down,
    _lattice,
    _lowest,
    iter_bits,
    render_support,
    subset_products,
)

GAMMA = "gamma"
AG = "ag"

Infinite = math.inf
DOMINATION_NODE_BUDGET = 500_000


@dataclass(frozen=True)
class Vertex:
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
        full = ring.full_mask
        self.classes: tuple[int, ...] = tuple(range(1, full))
        self.sizes: tuple[int, ...] = ring.qs if kind == GAMMA else (2,) * ring.k
        # the class of mask m has prod(q_i - 1) elements over the bits i of m
        self.weights: tuple[int, ...] = tuple(subset_products([q - 1 for q in self.sizes])[1:-1])

    @property
    def full_mask(self) -> int:
        return self.ring.full_mask

    def weight(self, mask: int) -> int:
        if not 0 < mask < self.full_mask:
            raise ValueError(f"mask {mask:b} is not a vertex class of this graph")
        return self.weights[mask - 1]

    def vertex_count(self) -> int:
        return sum(self.weights)

    def edge_count(self) -> int:
        # reach[s] counts the elements (ideals) supported inside s, zero
        # included, and class m reaches inside full - m, so its degree is
        # reach[full - m] - 1; the classes are m = 1 .. full - 1 in order
        reach = subset_products(self.sizes)
        return (sum(map(operator.mul, self.weights, reach[-2:0:-1])) - self.vertex_count()) // 2

    def degree_of_mask(self, mask: int) -> int:
        """Number of neighbors: everything supported inside the complement."""
        return math.prod(self.sizes[i] for i in iter_bits(self.full_mask & ~mask)) - 1

    def vertices(self) -> Iterator[Vertex]:
        for m, w in zip(self.classes, self.weights):
            for c in range(w):
                yield Vertex(m, c)

    def check_vertex(self, v: Vertex) -> None:
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


def _neighbors(lat: tuple[str, tuple[int, ...], int], bits: int) -> int:
    """The classes disjoint from at least one class in the set `bits`.

    Writing the set as 2^k binary digits and reversing them complements
    every mask at once (full - m == full ^ m); the downward closure is one
    shift-and-OR per coordinate.
    """
    fmt, has, classes = lat
    return _closed_down(has, int(format(bits, fmt)[::-1], 2)) & classes


def _levels(lat: tuple[str, tuple[int, ...], int], start: int, usable: int, stop: int) -> list[int]:
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
    One pass over the classes collects the (size, weight >= 2) pairs.
    """
    depth = [0] + [_class_depth(G, (1 << r) - 1) for r in range(1, G.ring.k)]
    kinds = set(zip(map(int.bit_count, G.classes), map((2).__le__, G.weights)))
    return {max(depth[r], 2) if copies else depth[r] for r, copies in kinds}


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
    """True when every vertex lies on a triangle; otherwise a failing vertex."""
    for m in G.classes:
        ok, _ = is_triangle_vertex(G, Vertex(m, 0))
        if not ok:
            return False, Vertex(m, 0)
    return True, None


def orthogonal(G: GraphView, u: Vertex, v: Vertex) -> bool:
    """Adjacent with no common neighbor (the edge is not in any triangle)."""
    G.check_vertex(u)
    G.check_vertex(v)
    # a common neighbor is any class inside the complement of u | v
    return u.mask & v.mask == 0 and u.mask | v.mask == G.full_mask


# ---------------------------------------------------------------------------
# shortest cycle through a pair (two vertex-disjoint paths by two searches)


@dataclass(frozen=True)
class GirthResult:
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
    lat: tuple[str, tuple[int, ...], int], start: int, near: int, usable: int
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
        return G.weights[m - 1] - (m == mu) - (m == mv)

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


@dataclass(frozen=True)
class DominationResult:
    size: int
    witness: tuple[Vertex, ...]
    certified: bool
    total: bool
    nodes: int
    root_lower_bound: int


def domination(G: GraphView, total: bool = False) -> DominationResult:
    """Exact minimum (total) dominating set size: two bounds, then exhaustive rounds.

    A class either contributes nothing, one copy, or all of its copies;
    one copy already dominates every disjoint class, and only a fully chosen
    class dominates itself (copies are never adjacent, so for the total
    variant self-cover never counts).  A choice set is two class bitsets:
    `one` holds the classes with one copy chosen and `every` the classes
    chosen whole.

    The upper bound is one copy of each single-coordinate class.  The lower
    bound packs the classes missing one coordinate that the empty choice
    leaves uncovered and that pairwise conflict, so that no one choice covers
    two of them.  From three factors on, and for the total variant, all k
    conflict and the bounds meet.  Otherwise the rounds try every choice set
    of cost lb, lb + 1, ... below the upper bound, one node per set, and the
    first dominating set of the first round that has one is the answer.
    """
    ws = G.weights
    full = G.full_mask
    k = G.ring.k
    lat = _lattice(k)
    # bit m is set when class m has one copy; bit 0 stands for no class
    weight_one = int("".join("1" if w == 1 else "0" for w in reversed(ws)) + "0", 2)

    def uncovered(one: int, every: int) -> int:
        covered = _neighbors(lat, one | every)
        if not total:
            covered |= every | (one & weight_one)
        return lat[2] & ~covered

    def conflict(ma: int, mb: int) -> bool:
        return (ma | mb) == full and (total or (ma & mb) != 0)

    left = uncovered(0, 0)
    pack: list[int] = []
    for m in sorted(full ^ (1 << i) for i in range(k)):
        if left >> m & 1 and all(conflict(m, p) for p in pack):
            pack.append(m)

    # (cost, one, every): one copy of each single-coordinate class
    best = (k, sum(1 << (1 << b) for b in range(k)), 0)
    nodes = 0
    for cost in range(len(pack), k):
        found = None
        for one, every in _choice_sets(G, cost):
            nodes += 1
            if nodes > DOMINATION_NODE_BUDGET:
                break
            if found is None and not uncovered(one, every):
                found = (cost, one, every)
        best = found or best
        if found or nodes > DOMINATION_NODE_BUDGET:
            break

    size, one, every = best
    witness = [Vertex(m, 0) for m in iter_bits(one)]
    witness += [Vertex(m, c) for m in iter_bits(every) for c in range(ws[m - 1])]
    witness.sort(key=lambda v: (v.mask, v.copy))

    _validate_domination(G, witness, total)
    return DominationResult(
        size=size,
        witness=tuple(witness),
        certified=nodes <= DOMINATION_NODE_BUDGET,
        total=total,
        nodes=nodes,
        root_lower_bound=len(pack),
    )


def _choice_sets(G: GraphView, cost: int) -> Iterator[tuple[int, int]]:
    """Every choice set of exactly this cost, as (one, every) class bitsets.

    A choice is one copy of a class, or all of its copies when it has
    several.  A set takes at most one choice per class, and each choice
    costs at least one copy, so it holds at most `cost` of them.
    """
    # (cost, class, whole)
    choices = [(1, m, False) for m in G.classes]
    choices += [(w, m, True) for m, w in zip(G.classes, G.weights) if w > 1]
    for r in range(cost + 1):
        for picked in itertools.combinations(choices, r):
            if sum(c for c, _, _ in picked) == cost and len({m for _, m, _ in picked}) == r:
                yield (
                    sum(1 << m for _, m, whole in picked if not whole),
                    sum(1 << m for _, m, whole in picked if whole),
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
        covered |= sum(1 << m for m, c in counts.items() if c == G.weights[m - 1])
    missed = classes & ~covered
    if missed:
        flavor = "totally dominated" if total else "dominated"
        raise InternalInconsistency(f"class {render_support(_lowest(missed))} not {flavor}")
