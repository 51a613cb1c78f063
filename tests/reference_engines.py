"""The class-index engines the package used before class bitsets, as references.

`domination` and `_sample_pairs` below are copied verbatim from the package
as it was before domination kept its state in two class bitsets and before
sampling grouped plain mask pairs.  The only edits: `G.adjacency()` and
`class_index(G, mask)`, which the package no longer has, are the local
`adjacency(G)`, built here by a plain disjointness scan, and
`class_index(G, mask)`.  The `IsolatedVertex` that `domination` raises is
defined here too: the package never raises it and no longer has it.

`elements_of_ideal` is the recursive element walk the package used
before it walked `itertools.product`, copied verbatim.

`decompose_table_ring` is the table decomposer the package used before
its checks compared whole rows: every check scans entry by entry.  It is
copied verbatim.

`maximal_annihilating`, `radius` and `diameter` at the end are the
package's scans before maximality became a transform on the subset
lattice and before radius and diameter ran one BFS per class size: a
pairwise inclusion scan over the annihilating ideals, and the min and max
of `class_eccentricity` over every class.  They are copied verbatim.

`RetractReport`, `retract_check` and `_suite_retract` are the retract
check from before it was one pass in `spectrum`: a submask walk for the
closures and edges, then the suite's own pairwise loop over the
annihilating ideals for the adjacency biconditional, which multiplies
each pair and each pair of closures with `ideal_product`.  They are copied
verbatim.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

from zdgraph.errors import (
    DecompositionMismatch,
    FactorNotField,
    NoAnnihilatingIdeals,
    FactorNotPrimeField,
    NotAdditiveGroup,
    NotCommutative,
    NotReduced,
    NotUnital,
    TooManyElements,
    ZdgraphError,
)
from zdgraph.graphs import (
    DOMINATION_NODE_BUDGET,
    DominationResult,
    GraphView,
    Vertex,
    _validate_domination,
    class_eccentricity,
)
from zdgraph.rings import (
    ELEMENT_CAP,
    Element,
    Ideal,
    Ring,
    TableRing,
    _is_prime,
    annihilating_ideals,
    ideal_product,
    iter_bits,
    submasks,
)
from zdgraph.spectrum import sz_closure
from zdgraph.tables import _find_zero
from zdgraph.verify import _rec, _wit


class IsolatedVertex(ZdgraphError):
    """Total domination is undefined when some vertex has no neighbor."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"vertex {witness} has no neighbor")


@functools.cache
def adjacency(G: GraphView) -> list[list[int]]:
    """Neighbor class indices of each class, ascending."""
    return [[j for j, s in enumerate(G.classes) if m & s == 0] for m in G.classes]


def class_index(G: GraphView, mask: int) -> int:
    """Index of the class with this mask: classes are the masks 1 .. full - 1 in order."""
    if not 0 < mask < G.full_mask:
        raise ValueError(f"mask {mask:b} is not a vertex class of this graph")
    return mask - 1


def domination(G: GraphView, total: bool = False) -> DominationResult:
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
    singleton_ids = [class_index(G, 1 << b) for b in range(G.ring.k)]

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
            for j in adjacency(G)[i]:
                cover_count[j] += 1

    def undo_choice(i: int, prev: int) -> None:
        if prev == 0 and level[i] > 0:
            for j in adjacency(G)[i]:
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
            opts.append((class_index(G, 1 << b), ONE))
        if not total:
            sub = comp
            while sub:
                j = class_index(G, sub)
                if not (sub & (sub - 1) == 0 and ws[j] == 1):  # singleton with one copy is already above
                    opts.append((j, FULL))
                sub = (sub - 1) & comp
            opts.append((i, FULL))
        return opts

    def search(cost: int) -> None:
        nonlocal best_cost, best_levels
        state["nodes"] += 1
        if state["nodes"] > DOMINATION_NODE_BUDGET:
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


def _popcount(m: int) -> int:
    return bin(m).count("1")


def _sample_pairs(
    G: GraphView, seed: int, suite: str, cap: int, include_same_class: bool
) -> list[tuple[Vertex, Vertex]]:
    full = G.full_mask
    groups: dict[tuple, list[tuple[Vertex, Vertex]]] = {}
    for i, mi in enumerate(G.classes):
        if include_same_class and G.weights[i] >= 2:
            sig = (_popcount(mi), _popcount(mi), _popcount(mi), mi == full, True)
            groups.setdefault(sig, []).append((Vertex(mi, 0), Vertex(mi, 1)))
        for mj in G.classes[i + 1 :]:
            a, b = sorted((mi, mj), key=lambda m: (_popcount(m), m))
            sig = (_popcount(a), _popcount(b), _popcount(a & b), (a | b) == full, False)
            groups.setdefault(sig, []).append((Vertex(a, 0), Vertex(b, 0)))
    chosen: list[tuple[Vertex, Vertex]] = []
    for sig in sorted(groups, key=repr):
        pairs = groups[sig]
        if len(pairs) > cap:
            rng = random.Random(f"{seed}:{suite}:{sig}")
            pairs = sorted(rng.sample(pairs, cap), key=lambda p: (p[0].mask, p[1].mask))
        chosen.extend(pairs)
    return chosen


def elements_of_ideal(ring: Ring, ideal: Ideal) -> list[Element]:
    """Explicit member list, for small rings and oracle work."""
    idx = list(iter_bits(ideal.mask))
    size = math.prod(ring.qs[i] for i in idx)
    if size > ELEMENT_CAP:
        raise TooManyElements(size, ELEMENT_CAP)
    members = []
    coords = [0] * ring.k

    def rec(j: int):
        if j == len(idx):
            members.append(ring.element(tuple(coords)))
            return
        for v in range(ring.qs[idx[j]]):
            coords[idx[j]] = v
            rec(j + 1)
        coords[idx[j]] = 0

    rec(0)
    return members


def decompose_table_ring(t: TableRing) -> Ring:
    """Split a table ring along primitive idempotents into prime fields.

    Factors are ordered by field size, ties broken by the smallest table
    index among the primitive idempotents, so the result is deterministic.
    Raises the specific construction error when the tables fail to describe
    a reduced commutative unital ring that is a product of prime fields.
    """
    n = t.size
    add, mul = t.add, t.mul
    zero = _find_zero(t)

    for x in range(n):
        if add[x] != tuple(add[y][x] for y in range(n)):
            raise NotAdditiveGroup(f"addition is not commutative at row {x}")
        if zero not in add[x]:
            raise NotAdditiveGroup(f"element {x} has no additive inverse")
    for x in range(n):
        row = mul[x]
        for y in range(x + 1, n):
            if row[y] != mul[y][x]:
                raise NotCommutative((x, y))
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
        if len(multiples) != q or set(multiples) != set(members):
            raise FactorNotField(e)
        factors.append((q, e, multiples))

    factors.sort(key=lambda item: (item[0], item[1]))
    qs = tuple(q for q, _, _ in factors)

    iso = []
    for x in range(n):
        coords = []
        for q, e, multiples in factors:
            part = mul[e][x]
            if part not in multiples:
                raise DecompositionMismatch(x)
            coords.append(multiples[part])
        iso.append(tuple(coords))
    if len(set(iso)) != n:
        raise DecompositionMismatch("coordinate map is not injective")

    # round trip: the tables must agree with coordinatewise arithmetic
    for x in range(n):
        ix = iso[x]
        arow, mrow = add[x], mul[x]
        for y in range(n):
            iy = iso[y]
            if iso[arow[y]] != tuple((a + b) % q for a, b, q in zip(ix, iy, qs)):
                raise DecompositionMismatch((x, y, "add"))
            if iso[mrow[y]] != tuple((a * b) % q for a, b, q in zip(ix, iy, qs)):
                raise DecompositionMismatch((x, y, "mul"))

    return Ring(qs=qs, table_iso=tuple(iso))


def maximal_annihilating(ring: Ring) -> list[Ideal]:
    """Maximal members of the annihilating-ideal family, by inclusion."""
    members = annihilating_ideals(ring)
    if not members:
        raise NoAnnihilatingIdeals(f"ring with factors {ring.qs} has no annihilating ideals")
    # I lies strictly inside J when its mask is a proper submask of J's
    return [
        I for I in members if not any(I.mask != J.mask and I.mask & ~J.mask == 0 for J in members)
    ]


def radius(G: GraphView) -> int:
    return min(class_eccentricity(G, m) for m in G.classes)


def diameter(G: GraphView) -> int:
    return max(class_eccentricity(G, m) for m in G.classes)


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
        for b in submasks(ring.full_mask & ~a.mask):
            if a.mask < b:
                pa, pb = closed[a.mask], closed[b]
                if pa & pb != 0 or pa == pb:
                    preserves = False
                    failures.append(f"edge {a.render(ring)}-{Ideal(b).render(ring)} not preserved")
    return RetractReport(
        is_identity=is_identity,
        preserves_adjacency=preserves,
        image_is_fixed=image_is_fixed,
        image_is_all=image_is_all,
        failures=tuple(failures),
    )


def _suite_retract(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    rep = retract_check(ring)
    out.append(_rec("retract.sz-identity", True, rep.is_identity, "", rep.is_identity))
    ok = rep.preserves_adjacency and rep.image_is_fixed
    witness = rep.failures[0] if rep.failures else ""
    out.append(_rec("retract.homomorphism", True, ok, witness, ok))

    members = annihilating_ideals(ring)
    closures = {i.mask: sz_closure(ring, i) for i in members}
    both = True
    bad = ""
    for a in members:
        for b in members:
            if a.mask >= b.mask:
                continue
            direct = ideal_product(ring, a, b).mask == 0
            closed = ideal_product(ring, closures[a.mask], closures[b.mask]).mask == 0
            if direct != closed:
                both = False
                bad = _wit(Vertex(a.mask, 0), Vertex(b.mask, 0))
                break
        if not both:
            break
    out.append(_rec("retract.adjacency-biconditional", True, both, bad, both))
