"""Uncompressed graphs and brute-force oracles, for the tests only.

Everything here recomputes graph and ring facts the slow, literal way:
explicit vertex lists, breadth-first search, subset enumeration, path
enumeration, operation tables.  The tests compare these answers against the
compressed engine, so nothing in this module may consult the closed forms
it is checking, and the package never imports it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from zdgraph.errors import InternalInconsistency, TooManyElements
from zdgraph.exports import DEFAULT_EXPLICIT_CAP, ENV_EXPLICIT_CAP
from zdgraph.graphs import GraphView, Vertex, gamma_vertex
from zdgraph.rings import Ring, TableRing, annihilating_ideals, env_int, ideal_product

ENUMERATION_MAX_LENGTH = 8
ENUMERATION_MAX_PATHS = 500_000
EXHAUSTIVE_MAX_VERTICES = 24


@dataclass(frozen=True)
class ExplicitGraph:
    kind: str
    labels: tuple[Vertex, ...]
    adj: tuple[frozenset[int], ...]

    def index_of(self, v: Vertex) -> int:
        return self.labels.index(v)

    @property
    def n(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adj) // 2


def materialize(G: GraphView) -> ExplicitGraph:
    """Expand a compressed graph into one node per vertex."""
    limit = env_int(ENV_EXPLICIT_CAP, DEFAULT_EXPLICIT_CAP)
    n = G.vertex_count()
    if n > limit:
        raise TooManyElements(n, limit)
    labels = tuple(G.vertices())
    adj = tuple(
        frozenset(j for j, b in enumerate(labels) if i != j and a.mask & b.mask == 0)
        for i, a in enumerate(labels)
    )
    return ExplicitGraph(G.kind, labels, adj)


def gamma_from_multiplication(ring: Ring) -> ExplicitGraph:
    """Zero-divisor graph straight from the multiplication, no support theory.

    Edges come from testing a*b == 0 over all element pairs, so this is an
    independent oracle for the compressed construction.  The elements are
    listed here, every coordinate tuple in lex order, not by the engine.
    """
    limit = env_int(ENV_EXPLICIT_CAP, DEFAULT_EXPLICIT_CAP)
    if ring.size > limit:
        raise TooManyElements(ring.size, limit)
    zero = ring.zero()
    elements = (ring.element(coords) for coords in product(*(range(q) for q in ring.qs)))
    nonzero = [a for a in elements if a != zero]
    pair_zero = [
        [ring.mul(a, b) == zero for b in nonzero] for a in nonzero
    ]
    divisors = [i for i, a in enumerate(nonzero) if any(pair_zero[i][j] for j in range(len(nonzero)) if j != i)]
    labels = tuple(gamma_vertex(ring, nonzero[i]) for i in divisors)
    pos = {v: p for p, v in enumerate(divisors)}
    adj = tuple(
        frozenset(pos[j] for j in divisors if j != i and pair_zero[i][j])
        for i in divisors
    )
    return ExplicitGraph("gamma", labels, adj)


def ag_from_ideal_products(ring: Ring) -> ExplicitGraph:
    """Ideal graph with edges from computed ideal products."""
    members = annihilating_ideals(ring)
    labels = tuple(Vertex(I.mask, 0) for I in members)
    adj = tuple(
        frozenset(
            j
            for j, J in enumerate(members)
            if i != j and ideal_product(ring, I, J).mask == 0
        )
        for i, I in enumerate(members)
    )
    return ExplicitGraph("ag", labels, adj)


# ---------------------------------------------------------------------------
# breadth-first oracles


def bfs_distances(eg: ExplicitGraph, src: int) -> list[float]:
    dist: list[float] = [math.inf] * eg.n
    dist[src] = 0
    frontier = [src]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for i in frontier:
            for j in eg.adj[i]:
                if dist[j] is math.inf:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return dist


def bfs_distance(eg: ExplicitGraph, u: int, v: int) -> float:
    return bfs_distances(eg, u)[v]


def bfs_eccentricity(eg: ExplicitGraph, u: int) -> float:
    return max(bfs_distances(eg, u))


def bfs_radius(eg: ExplicitGraph) -> float:
    return min(bfs_eccentricity(eg, i) for i in range(eg.n))


def bfs_diameter(eg: ExplicitGraph) -> float:
    return max(bfs_eccentricity(eg, i) for i in range(eg.n))


# ---------------------------------------------------------------------------
# local structure oracles


def scan_triangle_vertex(eg: ExplicitGraph, u: int) -> bool:
    for a in eg.adj[u]:
        for b in eg.adj[u]:
            if a < b and b in eg.adj[a]:
                return True
    return False


def scan_orthogonal(eg: ExplicitGraph, u: int, v: int) -> bool:
    if v not in eg.adj[u]:
        return False
    return not (eg.adj[u] & eg.adj[v])


def scan_pendant(eg: ExplicitGraph, u: int) -> bool:
    return len(eg.adj[u]) == 1


# ---------------------------------------------------------------------------
# shortest cycle through a pair


def cycle_through_pair_flow(eg: ExplicitGraph, u: int, v: int) -> float:
    """Exact answer by min-cost two vertex-disjoint paths on the full graph.

    Every vertex i is split into an entry node 2i and an exit node 2i + 1;
    intermediates carry capacity one, the endpoints two, and each directed
    edge costs one.  Two units from u to v then cost exactly the shortest
    cycle through the pair.  Each unit follows a shortest residual path
    found by queue-based Bellman-Ford, a solver of its own so that a flaw in
    the engine's flow code cannot pass here too.
    """
    if u == v:
        raise ValueError("need two distinct vertices")
    # residual[a][b] = [capacity, cost]; no arc has a reverse twin in the
    # split graph, so one dict entry per direction is enough
    residual: list[dict[int, list[int]]] = [{} for _ in range(2 * eg.n)]

    def arc(a: int, b: int, cap: int, cost: int) -> None:
        residual[a][b] = [cap, cost]
        residual[b][a] = [0, -cost]

    for i in range(eg.n):
        arc(2 * i, 2 * i + 1, 2 if i in (u, v) else 1, 0)
        for j in eg.adj[i]:
            arc(2 * i + 1, 2 * j, 1, 1)
    source, sink = 2 * u, 2 * v + 1
    total = 0
    for _ in range(2):
        dist = {source: 0}
        prev: dict[int, int] = {}
        queue, queued = deque([source]), {source}
        while queue:
            a = queue.popleft()
            queued.discard(a)
            for b, (cap, cost) in residual[a].items():
                if cap > 0 and dist[a] + cost < dist.get(b, math.inf):
                    dist[b] = dist[a] + cost
                    prev[b] = a
                    if b not in queued:
                        queue.append(b)
                        queued.add(b)
        if sink not in dist:
            return math.inf
        b = sink
        while b != source:
            a = prev[b]
            residual[a][b][0] -= 1
            residual[b][a][0] += 1
            b = a
        total += dist[sink]
    return float(total)


def cycle_through_pair_enumeration(eg: ExplicitGraph, u: int, v: int) -> float:
    """Minimum cycle length through u and v by enumerating simple paths.

    Returns inf when no cycle of length <= ENUMERATION_MAX_LENGTH exists.
    Each of the two u-v paths of a cycle is at least dist(u, v) long, so a
    cycle within the cap has both paths no longer than the cap minus
    dist(u, v); the search stops there and still sees every such pair.
    Only suitable for small graphs; raises RuntimeError if the path census
    explodes.
    """
    if u == v:
        raise ValueError("need two distinct vertices")
    cap = ENUMERATION_MAX_LENGTH
    limit = cap - bfs_distance(eg, u, v)
    paths: list[tuple[int, frozenset[int]]] = []

    def dfs(node: int, visited: set[int], length: int) -> None:
        if len(paths) > ENUMERATION_MAX_PATHS:
            raise RuntimeError("path enumeration exceeded budget")
        for nxt in eg.adj[node]:
            if nxt == v:
                paths.append((length + 1, frozenset(visited - {u})))
            elif nxt not in visited and length + 1 < limit:
                visited.add(nxt)
                dfs(nxt, visited, length + 1)
                visited.remove(nxt)

    dfs(u, {u}, 0)
    paths.sort()
    best = math.inf
    for i, (l1, s1) in enumerate(paths):
        if 2 * l1 >= best:
            break
        for l2, s2 in paths[i + 1 :]:
            if l1 + l2 >= best or l1 + l2 > cap:
                break
            if not (s1 & s2):
                best = l1 + l2
                break
    return best


# ---------------------------------------------------------------------------
# domination by subset enumeration


def exhaustive_domination(eg: ExplicitGraph, total: bool = False) -> tuple[int, tuple[int, ...]]:
    n = eg.n
    if n > EXHAUSTIVE_MAX_VERTICES:
        raise TooManyElements(n, EXHAUSTIVE_MAX_VERTICES)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            chosen = set(combo)
            ok = True
            for w in range(n):
                if total:
                    if not (eg.adj[w] & chosen):
                        ok = False
                        break
                else:
                    if w not in chosen and not (eg.adj[w] & chosen):
                        ok = False
                        break
            if ok:
                return size, combo
    raise InternalInconsistency("no dominating set found")


# ---------------------------------------------------------------------------
# table-mode oracle


@dataclass
class TableOracle:
    """Recomputes ring-theoretic data straight from the tables.

    Everything here is deliberately brute force; it exists to cross-check
    the coordinate implementations on small rings.  It finds the additive
    zero with its own scan, so a fault in the decomposer's search cannot
    pass on both sides.
    """

    t: TableRing

    def __post_init__(self):
        self.n = self.t.size
        add = self.t.add
        for z in range(self.n):
            if all(add[z][y] == y for y in range(self.n)):
                self.zero = z
                break
        else:
            raise ValueError("the tables have no additive zero")

    def annihilator(self, x: int) -> frozenset[int]:
        mul = self.t.mul
        return frozenset(y for y in range(self.n) if mul[x][y] == self.zero)

    def zero_divisors(self) -> set[int]:
        """Nonzero elements with a nonzero annihilator."""
        out = set()
        for x in range(self.n):
            if x == self.zero:
                continue
            if any(y != self.zero for y in self.annihilator(x)):
                out.add(x)
        return out

    def principal(self, x: int) -> frozenset[int]:
        return frozenset(self.t.mul[x])

    def all_ideals(self) -> list[frozenset[int]]:
        """Close the principal ideals under pairwise sum until a fixpoint."""
        add = self.t.add
        ideals = {self.principal(x) for x in range(self.n)}
        changed = True
        while changed:
            changed = False
            current = list(ideals)
            for i, A in enumerate(current):
                for B in current[i:]:
                    s = frozenset(add[a][b] for a in A for b in B)
                    if s not in ideals:
                        ideals.add(s)
                        changed = True
        return sorted(ideals, key=lambda s: (len(s), sorted(s)))

    def is_prime_ideal(self, S: frozenset[int]) -> bool:
        if len(S) == self.n:
            return False
        mul = self.t.mul
        for x in range(self.n):
            if x in S:
                continue
            row = mul[x]
            for y in range(x, self.n):
                if y not in S and row[y] in S:
                    return False
        return True

    def minimal_primes(self) -> list[frozenset[int]]:
        primes = [S for S in self.all_ideals() if self.is_prime_ideal(S)]
        return [P for P in primes if not any(Q < P for Q in primes)]

    def bourbaki_primes(self) -> list[tuple[frozenset[int], int]]:
        """Primes of the form Ann(x), each with one witness element."""
        found: dict[frozenset[int], int] = {}
        for x in range(self.n):
            if x == self.zero:
                continue
            ann = self.annihilator(x)
            if ann not in found and self.is_prime_ideal(ann):
                found[ann] = x
        return sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
