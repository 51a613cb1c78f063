"""The min-cost-flow girth engine, kept as a reference for differential tests.

`girth_through` below is the flow engine the package used before the lattice
searches, copied verbatim: one two-unit min-cost-flow solve per pair on the
class network, with each class split into an entry and an exit node.  The
edits: its class rows come from `reference_engines.adjacency(G)`, as the
package no longer builds adjacency lists, and its class weights from
`reference_engines.weights(G)`, as the package no longer keeps a weight table.
"""

from __future__ import annotations

import heapq
import math

from reference_engines import adjacency, weights
from zdgraph.graphs import GirthResult, GraphView, Infinite, Vertex


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
    adj = adjacency(G)
    net = _MinCostFlow(2 + 2 * len(cs))
    source, sink = 0, 1

    def node_in(i: int) -> int:
        return 2 + 2 * i

    def node_out(i: int) -> int:
        return 3 + 2 * i

    caps = [min(2, w - (m == u.mask) - (m == v.mask)) for m, w in zip(cs, weights(G))]
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
