"""Zero-divisor and annihilating-ideal graphs in compressed form.

Vertices of the zero-divisor graph are the nonzero zero divisors; vertices
of the ideal graph are the nonzero ideals with nonzero annihilator.  In both
graphs adjacency means the supports are disjoint, so the graph is stored one
node per support class with a multiplicity, and every metric runs on that
compressed form.  Copies inside one class are pairwise non-adjacent and
interchangeable, which is what makes the compression exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import Disconnected, EmptyGraph, IsolatedVertex, TooManyFactors
from .rings import (
    DEFAULT_MAX_FACTORS,
    Element,
    Ideal,
    Ring,
    annihilating_ideals,
    iter_bits,
    render_support,
)
from .spectrum import sz_closure

GAMMA = "gamma"
AG = "ag"

Infinite = math.inf


@dataclass(frozen=True)
class Vertex:
    """One vertex of a compressed graph: a support class and a copy index."""

    mask: int
    copy: int = 0

    def render(self) -> str:
        s = "S=" + render_support(self.mask)
        return s if self.copy == 0 else f"{s}#{self.copy}"


class GraphView:
    """A compressed graph: classes are support masks, adjacency is disjointness."""

    def __init__(self, kind: str, ring: Ring):
        if ring.k < 2:
            raise EmptyGraph(
                f"ring with factors {ring.qs} has no zero divisors, so the {kind} graph is empty"
            )
        self.kind = kind
        self.ring = ring
        full = ring.full_mask
        self.classes: tuple[int, ...] = tuple(range(1, full))
        if kind == GAMMA:
            self.weights: tuple[int, ...] = tuple(ring.class_size(m) for m in self.classes)
        else:
            self.weights = (1,) * len(self.classes)
        self._index = {m: i for i, m in enumerate(self.classes)}
        self._adj: list[list[int]] | None = None

    @property
    def full_mask(self) -> int:
        return self.ring.full_mask

    def class_index(self, mask: int) -> int:
        try:
            return self._index[mask]
        except KeyError:
            raise ValueError(f"mask {mask:b} is not a vertex class of this graph") from None

    def weight(self, mask: int) -> int:
        return self.weights[self.class_index(mask)]

    def vertex_count(self) -> int:
        return sum(self.weights)

    def edge_count(self) -> int:
        total = 0
        for i, m in enumerate(self.classes):
            total += self.weights[i] * self.degree_of_mask(m)
        return total // 2

    def degree_of_mask(self, mask: int) -> int:
        """Number of neighbors: everything supported inside the complement."""
        comp = self.full_mask & ~mask
        if self.kind == GAMMA:
            prod = 1
            for i in iter_bits(comp):
                prod *= self.ring.qs[i]
            return prod - 1
        return (1 << bin(comp).count("1")) - 1

    def adjacency(self) -> list[list[int]]:
        if self._adj is None:
            cs = self.classes
            self._adj = [
                [j for j, mj in enumerate(cs) if mi & mj == 0] for mi in cs
            ]
        return self._adj

    def vertices(self) -> Iterator[Vertex]:
        for m, w in zip(self.classes, self.weights):
            for c in range(w):
                yield Vertex(m, c)

    def check_vertex(self, v: Vertex) -> None:
        i = self.class_index(v.mask)
        if not 0 <= v.copy < self.weights[i]:
            raise ValueError(f"copy {v.copy} out of range for class {v.render()}")


def build_gamma(ring: Ring, max_factors: int = DEFAULT_MAX_FACTORS) -> GraphView:
    if ring.k > max_factors:
        raise TooManyFactors(ring.k, max_factors)
    return GraphView(GAMMA, ring)


def build_ag(ring: Ring, max_factors: int = DEFAULT_MAX_FACTORS) -> GraphView:
    if ring.k > max_factors:
        raise TooManyFactors(ring.k, max_factors)
    return GraphView(AG, ring)


# ---------------------------------------------------------------------------
# vertex <-> element / ideal


def gamma_vertex(ring: Ring, a: Element) -> Vertex:
    """Locate a zero divisor in the compressed graph without enumerating it."""
    mask = a.support_mask
    if mask == 0 or mask == ring.full_mask:
        raise ValueError(f"{a} is not a nonzero zero divisor")
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


def ag_vertex(ring: Ring, ideal: Ideal) -> Vertex:
    mask = ideal.mask
    if mask == 0 or mask == ring.full_mask:
        raise ValueError(f"{ideal} is not an annihilating ideal")
    return Vertex(mask, 0)


def vertex_label(G: GraphView, v: Vertex) -> str:
    if G.kind == GAMMA:
        return str(vertex_element(G.ring, v))
    return Ideal(v.mask).render(G.ring)


# ---------------------------------------------------------------------------
# distance, eccentricity, radius


def class_distances(G: GraphView, src: int) -> list[float]:
    """BFS over classes from class index `src`; unreached classes get inf."""
    adj = G.adjacency()
    dist: list[float] = [Infinite] * len(G.classes)
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for i in frontier:
            for j in adj[i]:
                if dist[j] is Infinite:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return dist


def distance(G: GraphView, u: Vertex, v: Vertex) -> int:
    G.check_vertex(u)
    G.check_vertex(v)
    if u == v:
        return 0
    if u.mask & v.mask == 0:
        return 1
    if u.mask == v.mask:
        # distinct copies are never adjacent; go out to any neighbor and back
        if G.degree_of_mask(u.mask) == 0:
            raise Disconnected((u.render(), v.render()))
        return 2
    d = class_distances(G, G.class_index(u.mask))[G.class_index(v.mask)]
    if d is Infinite:
        raise Disconnected((u.render(), v.render()))
    return int(d)


def class_eccentricity(G: GraphView, mask: int) -> int:
    """Eccentricity shared by every copy in the class."""
    i = G.class_index(mask)
    dist = class_distances(G, i)
    best = 0
    for j, d in enumerate(dist):
        if j == i:
            continue
        if d is Infinite:
            raise Disconnected((Vertex(mask).render(), Vertex(G.classes[j]).render()))
        best = max(best, int(d))
    if G.weights[i] >= 2:
        if not G.adjacency()[i]:
            raise Disconnected((Vertex(mask, 0).render(), Vertex(mask, 1).render()))
        best = max(best, 2)
    return best


def eccentricity(G: GraphView, u: Vertex) -> int:
    G.check_vertex(u)
    return class_eccentricity(G, u.mask)


def radius(G: GraphView) -> int:
    return min(class_eccentricity(G, m) for m in G.classes)


def diameter(G: GraphView) -> int:
    return max(class_eccentricity(G, m) for m in G.classes)


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


def common_neighbor(G: GraphView, u: Vertex, v: Vertex) -> Vertex | None:
    rest = G.full_mask & ~(u.mask | v.mask)
    if rest:
        return Vertex(rest, 0)
    return None


def orthogonal(G: GraphView, u: Vertex, v: Vertex) -> bool:
    """Adjacent with no common neighbor (the edge is not in any triangle)."""
    G.check_vertex(u)
    G.check_vertex(v)
    if u == v or u.mask & v.mask != 0:
        return False
    return common_neighbor(G, u, v) is None


# ---------------------------------------------------------------------------
# shortest cycle through a pair (min-cost two vertex-disjoint paths)


class _MinCostFlow:
    """Successive shortest paths with Dijkstra and node potentials."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)

    def min_cost_flow(self, s: int, t: int, want: int) -> tuple[int, int]:
        """Push up to `want` units; returns (flow achieved, total cost)."""
        flow = 0
        total = 0
        pot = [0] * self.n
        while flow < want:
            dist = [math.inf] * self.n
            prev_edge = [-1] * self.n
            dist[s] = 0
            pq = [(0, s)]
            while pq:
                d, u = heapq.heappop(pq)
                if d > dist[u]:
                    continue
                for eid in self.adj[u]:
                    if self.cap[eid] <= 0:
                        continue
                    v = self.to[eid]
                    nd = d + self.cost[eid] + pot[u] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = eid
                        heapq.heappush(pq, (nd, v))
            if dist[t] is math.inf:
                break
            for i in range(self.n):
                if dist[i] is not math.inf:
                    pot[i] += dist[i]
            push = want - flow
            v = t
            while v != s:
                eid = prev_edge[v]
                push = min(push, self.cap[eid])
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= push
                self.cap[eid ^ 1] += push
                v = self.to[eid ^ 1]
            flow += push
            total += push * pot[t]
        return flow, total

    def extract_unit_paths(self, s: int, t: int, units: int) -> list[list[int]]:
        """Decompose the pushed flow into unit walks from s to t."""
        used = [self.cap[i ^ 1] if i % 2 == 0 else 0 for i in range(len(self.to))]
        paths = []
        for _ in range(units):
            node = s
            walk = [s]
            while node != t:
                for eid in self.adj[node]:
                    if eid % 2 == 0 and used[eid] > 0:
                        used[eid] -= 1
                        node = self.to[eid]
                        walk.append(node)
                        break
                else:
                    raise AssertionError("flow decomposition failed")
            paths.append(walk)
        return paths


@dataclass(frozen=True)
class GirthResult:
    """Shortest cycle through a vertex pair; length is inf when none exists.

    One flow solve is always exact, so `bound_used` is always 2 and
    `escalated` always False.  Both stay as fields because the benchmark
    trace reads them.
    """

    length: float
    cycle: tuple[Vertex, ...] | None
    bound_used: int = 2
    escalated: bool = False


def girth_through(G: GraphView, u: Vertex, v: Vertex) -> GirthResult:
    """Length of the shortest simple cycle through both u and v.

    Computed as the minimum total length of two internally vertex-disjoint
    u-v paths: two units of min-cost flow through the class network, each
    class split into an entry and an exit node.  A class's capacity is its
    copies left over after u and v, clipped at 2.  The clip is exact: every
    arc between classes costs one, so a unit that passed one class twice
    would contain a positive-cost cycle, and a min-cost flow carries none.
    Each of the two units therefore uses a class at most once.
    """
    G.check_vertex(u)
    G.check_vertex(v)
    if u == v:
        raise ValueError("girth_through needs two distinct vertices")

    cs = G.classes
    adj = G.adjacency()
    net = _MinCostFlow(2 + 2 * len(cs))
    source, sink = 0, 1

    def node_in(i: int) -> int:
        return 2 + 2 * i

    def node_out(i: int) -> int:
        return 3 + 2 * i

    caps = [min(2, w - (m == u.mask) - (m == v.mask)) for m, w in zip(cs, G.weights)]
    for i, c in enumerate(caps):
        if c > 0:
            net.add_edge(node_in(i), node_out(i), c, 0)
    if u.mask & v.mask == 0:
        net.add_edge(source, sink, 1, 1)
    for i, m in enumerate(cs):
        if caps[i] <= 0:
            continue
        if m & u.mask == 0:
            net.add_edge(source, node_in(i), 2, 1)
        if m & v.mask == 0:
            net.add_edge(node_out(i), sink, 2, 1)
        for j in adj[i]:
            if caps[j] > 0:
                net.add_edge(node_out(i), node_in(j), 2, 1)

    flow, cost = net.min_cost_flow(source, sink, 2)
    if flow < 2:
        return GirthResult(Infinite, None)

    walks = net.extract_unit_paths(source, sink, 2)
    # allocate distinct copies per class across the whole cycle
    next_copy: dict[int, int] = {}

    def take_copy(mask: int) -> Vertex:
        c = next_copy.get(mask, 0)
        while (mask == u.mask and c == u.copy) or (mask == v.mask and c == v.copy):
            c += 1
        next_copy[mask] = c + 1
        return Vertex(mask, c)

    sides = []
    for walk in walks:
        inner = []
        for node in walk[1:-1]:
            if node % 2 == 0:
                continue  # class entry node; emit the vertex once, at the exit node
            inner.append(take_copy(cs[(node - 2) // 2]))
        sides.append(inner)
    cycle = (u, *sides[0], v, *reversed(sides[1]))

    if len(set(cycle)) != len(cycle):
        raise AssertionError("girth witness repeats a vertex")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if a.mask & b.mask != 0:
            raise AssertionError("girth witness contains a non-edge")
    if len(cycle) != cost:
        raise AssertionError("girth witness length disagrees with flow cost")
    return GirthResult(float(cost), cycle)


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


def domination(G: GraphView, total: bool = False, node_budget: int = 500_000) -> DominationResult:
    """Exact minimum (total) dominating set size via branch and bound.

    A class either contributes nothing, one copy, or all of its copies;
    one copy already dominates every disjoint class, and only a fully chosen
    class dominates itself (copies are never adjacent, so for the total
    variant self-cover never counts).  The lower bound packs uncovered
    classes no single choice can cover together, and the first incumbent is
    one copy per single-coordinate class.
    """
    cs = G.classes
    ws = G.weights
    full = G.full_mask
    nclasses = len(cs)

    if total:
        for m in cs:
            if full & ~m == 0:
                raise IsolatedVertex(Vertex(m, 0).render())

    ONE, FULL = 1, 2
    level = [0] * nclasses
    cover_count = [0] * nclasses  # how many chosen classes are disjoint from this one
    singleton_ids = [G.class_index(1 << b) for b in range(G.ring.k)]

    def is_covered(i: int) -> bool:
        if cover_count[i] > 0:
            return True
        if total:
            return False
        return level[i] == FULL or (level[i] == ONE and ws[i] == 1)

    def apply_choice(i: int, lev: int) -> None:
        was_chosen = level[i] > 0
        level[i] = max(level[i], lev)
        if not was_chosen:
            for j in G.adjacency()[i]:
                cover_count[j] += 1

    def undo_choice(i: int, prev: int) -> None:
        if prev == 0 and level[i] > 0:
            for j in G.adjacency()[i]:
                cover_count[j] -= 1
        level[i] = prev

    def choice_cost(i: int, lev: int) -> int:
        cur = 0 if level[i] == 0 else (1 if level[i] == ONE else ws[i])
        new = 1 if lev == ONE else ws[i]
        return max(0, new - cur)

    def conflict(a: int, b: int) -> bool:
        ma, mb = cs[a], cs[b]
        if ma | mb != full:
            return False
        return total or (ma & mb) != 0

    def lower_bound(uncovered: list[int]) -> int:
        pack: list[int] = []
        for i in sorted(uncovered, key=lambda x: (-bin(cs[x]).count("1"), cs[x])):
            if all(conflict(i, p) for p in pack):
                pack.append(i)
        return len(pack)

    # incumbent: one copy of every single-coordinate class
    best_cost = len(singleton_ids)
    best_levels = [0] * nclasses
    for i in singleton_ids:
        best_levels[i] = ONE

    state = {"nodes": 0, "overflow": False}

    def options_for(i: int) -> list[tuple[int, int]]:
        """Choices that cover class i, as (class index, level)."""
        comp = full & ~cs[i]
        opts: list[tuple[int, int]] = []
        for b in iter_bits(comp):
            opts.append((G.class_index(1 << b), ONE))
        if not total:
            sub = comp
            while sub:
                j = G.class_index(sub)
                if not (sub & (sub - 1) == 0 and ws[j] == 1):  # singleton with one copy is already above
                    opts.append((j, FULL))
                sub = (sub - 1) & comp
            opts.append((i, FULL))
        return opts

    def search(cost: int) -> None:
        nonlocal best_cost, best_levels
        state["nodes"] += 1
        if state["nodes"] > node_budget:
            state["overflow"] = True
            return
        uncovered = [i for i in range(nclasses) if not is_covered(i)]
        if not uncovered:
            if cost < best_cost:
                best_cost = cost
                best_levels = level.copy()
            return
        if cost + lower_bound(uncovered) >= best_cost:
            return
        # branch on the class with the fewest ways to cover it
        target = min(uncovered, key=lambda i: (bin(full & ~cs[i]).count("1"), cs[i]))
        opts = options_for(target)
        opts.sort(key=lambda o: (choice_cost(*o), -bin(full & ~cs[o[0]]).count("1"), cs[o[0]], o[1]))
        for j, lev in opts:
            extra = choice_cost(j, lev)
            if extra == 0:
                continue
            if cost + extra >= best_cost:
                continue
            prev = level[j]
            apply_choice(j, lev)
            search(cost + extra)
            undo_choice(j, prev)

    root_lb = lower_bound(list(range(nclasses)))
    if root_lb < best_cost:
        search(0)

    witness: list[Vertex] = []
    for i, lev in enumerate(best_levels):
        if lev == ONE:
            witness.append(Vertex(cs[i], 0))
        elif lev == FULL:
            witness.extend(Vertex(cs[i], c) for c in range(ws[i]))
    witness.sort(key=lambda v: (v.mask, v.copy))

    _validate_domination(G, witness, total)
    return DominationResult(
        size=best_cost,
        witness=tuple(witness),
        certified=not state["overflow"],
        total=total,
        nodes=state["nodes"],
        root_lower_bound=root_lb,
    )


def _validate_domination(G: GraphView, witness: list[Vertex], total: bool) -> None:
    chosen_masks = {v.mask for v in witness}
    counts: dict[int, int] = {}
    for v in witness:
        counts[v.mask] = counts.get(v.mask, 0) + 1
    for i, m in enumerate(G.classes):
        dominated_by_neighbor = any(m & t == 0 for t in chosen_masks)
        if total:
            if not dominated_by_neighbor:
                raise AssertionError(f"class {render_support(m)} not totally dominated")
        else:
            fully_in = counts.get(m, 0) == G.weights[i]
            if not (dominated_by_neighbor or fully_in):
                raise AssertionError(f"class {render_support(m)} not dominated")


# ---------------------------------------------------------------------------
# retract of the ideal graph onto its closed ideals


@dataclass(frozen=True)
class RetractReport:
    is_identity: bool
    preserves_adjacency: bool
    image_is_fixed: bool
    image_is_all: bool
    failures: tuple[str, ...]

    @property
    def is_retraction(self) -> bool:
        return self.preserves_adjacency and self.image_is_fixed


def retract_check(ring: Ring) -> RetractReport:
    """Check that I -> sz_closure(I) retracts the ideal graph onto itself."""
    members = annihilating_ideals(ring)
    failures: list[str] = []
    closed = {I.mask: sz_closure(ring, I).mask for I in members}

    is_identity = all(phi == m for m, phi in closed.items())
    image_is_fixed = True
    for I in members:
        phi = closed[I.mask]
        if sz_closure(ring, Ideal(phi)).mask != phi:
            image_is_fixed = False
            failures.append(f"closure of {I.render(ring)} is not fixed")
    image_is_all = set(closed.values()) == set(closed)

    preserves = True
    for a in members:
        for b in members:
            if a.mask < b.mask and a.mask & b.mask == 0:
                pa, pb = closed[a.mask], closed[b.mask]
                if pa & pb != 0 or pa == pb:
                    preserves = False
                    failures.append(f"edge {a.render(ring)}-{b.render(ring)} not preserved")
    return RetractReport(
        is_identity=is_identity,
        preserves_adjacency=preserves,
        image_is_fixed=image_is_fixed,
        image_is_all=image_is_all,
        failures=tuple(failures),
    )
