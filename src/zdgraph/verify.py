"""Prediction-versus-oracle verification with reproducible reports.

Each check pairs a structural prediction (computed from supports and the
min-prime topology) with an oracle that recomputes the same fact a different
way (ring arithmetic, breadth-first search, disjoint-path search, exact
domination).  Every comparison becomes one record; violations matching the
edge-case registry are marked registered, anything else failing is an
unregistered violation.

Predictions and oracles are constant on support classes, so checks run per
class pair and cover the whole graph semantically.  Reports never contain
timestamps and all sampling is seeded, so the same ring, suites, seed, and
package version always produce byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterator, Sequence
from enum import Enum
from typing import NamedTuple

from .edge_cases import Registry, load_registry
from .errors import InputFormatError
from .graphs import (
    GraphView,
    Vertex,
    build_ag,
    build_gamma,
    class_eccentricity,
    distance,
    domination,
    girth_through,
    is_triangle_vertex,
    is_triangulated,
    orthogonal,
    radius,
    vertex_element,
)
from .pairs import pair_groups
from .rings import (
    Ideal,
    Ring,
    _closed_down,
    _lattice,
    _lowest,
    elements_of_ideal,
    iter_bits,
)
from .spectrum import (
    PlaceStatus,
    bourbaki_primes,
    cozero_set,
    fixed_place_status,
    is_singleton,
    kernel,
    maximal_annihilating,
    min_primes,
    retract_check,
    zero_set,
)
from .version import __version__

REPORT_FORMAT = 1

PRODUCT_SCAN_LIMIT = 20_000  # element pairs; beyond this only generators are multiplied


class Verdict(str, Enum):
    CONFIRMED = "Confirmed"
    VIOLATED = "Violated"
    NOT_APPLICABLE = "NotApplicable"


def _render(value: object) -> object:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "Infinite"
        if math.isnan(value):
            return "NaN"
        return int(value) if value == int(value) else value
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_render(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(value, dict):
        return {str(k): _render(v) for k, v in value.items()}
    return str(value)


def _json(value: object, indent: str) -> str:
    """`value` as `json_bytes` writes it `indent` deep: exact, as encoded strings hold no raw newline."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


_string = json.encoder.encode_basestring
_VERDICT_JSON = {v: _string(v.value) for v in Verdict}


def _value(value: object) -> str:
    """A prediction or oracle, `_render`ed, in JSON; common scalars skip `json.dumps`."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, int):
        return int.__repr__(value)
    return _json(_render(value), "      ")


# one record of a report's "records" array, its keys in sorted order
_RECORD = (
    '    {\n      "check_id": %s,\n      "note": %s,\n      "oracle": %s,\n      "prediction": %s,\n'
    '      "registered": %s,\n      "verdict": %s,\n      "witness": %s\n    }'
)


class CheckRecord(NamedTuple):
    check_id: str
    verdict: Verdict
    prediction: object
    oracle: object
    witness: str
    registered: bool = False
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "verdict": self.verdict.value,
            "prediction": _render(self.prediction),
            "oracle": _render(self.oracle),
            "witness": self.witness,
            "registered": self.registered,
            "note": self.note,
        }

    def to_json(self) -> str:
        """The record as `to_json_bytes` lists it: `json_bytes` of `to_dict`, two levels deep."""
        return _RECORD % (
            _string(self.check_id),
            "null" if self.note is None else _string(self.note),
            _value(self.oracle),
            _value(self.prediction),
            "true" if self.registered else "false",
            _VERDICT_JSON[self.verdict],
            _string(self.witness),
        )


class VerificationReport(NamedTuple):
    ring: dict
    suites: tuple[str, ...]
    seed: int
    records: list[CheckRecord]

    def counts(self) -> dict[str, int]:
        c = {"confirmed": 0, "violated": 0, "violated_registered": 0, "not_applicable": 0}
        for r in self.records:
            if r.verdict is Verdict.CONFIRMED:
                c["confirmed"] += 1
            elif r.verdict is Verdict.NOT_APPLICABLE:
                c["not_applicable"] += 1
            elif r.registered:
                c["violated_registered"] += 1
            else:
                c["violated"] += 1
        c["total"] = len(self.records)
        return c

    @property
    def has_unregistered_violations(self) -> bool:
        return any(
            r.verdict is Verdict.VIOLATED and not r.registered for r in self.records
        )

    def _document(self, records: list) -> dict:
        return {
            "format": REPORT_FORMAT,
            "generator": {"name": "zdgraph", "version": __version__},
            "ring": self.ring,
            "suites": list(self.suites),
            "seed": self.seed,
            "summary": self.counts(),
            "records": records,
        }

    def _sorted_records(self) -> list[CheckRecord]:
        return sorted(self.records, key=lambda r: (r.check_id, r.witness))

    def to_dict(self) -> dict:
        return self._document([r.to_dict() for r in self._sorted_records()])

    def json_chunks(self) -> Iterator[str]:
        """The text of `exports.json_bytes(self.to_dict())`: envelope head, one chunk per record, tail."""
        # the envelope's "records": [] sits on a line of its own, two spaces
        # deep, where no nested key or encoded string can match it
        head, empty, tail = _json(self._document([]), "").partition('\n  "records": []')
        records = self._sorted_records()
        if not records:
            yield head + empty + tail + "\n"
            return
        yield head + '\n  "records": [\n' + records[0].to_json()
        for r in records[1:]:
            yield ",\n" + r.to_json()
        yield "\n  ]" + tail + "\n"

    def to_json_bytes(self) -> bytes:
        return "".join(self.json_chunks()).encode("utf-8")

    def summary_lines(self) -> list[str]:
        c = self.counts()
        lines = [
            "verification of {} (suites: {}, seed {})".format(
                _ring_name(self.ring), ", ".join(self.suites), self.seed
            ),
            "  confirmed            {confirmed}".format(**c),
            "  violated (registered) {violated_registered}".format(**c),
            "  violated (UNREGISTERED) {violated}".format(**c),
            "  not applicable       {not_applicable}".format(**c),
        ]
        for r in self._sorted_records():
            if r.verdict is Verdict.VIOLATED and not r.registered:
                lines.append(f"  !! {r.check_id} at {r.witness}: predicted {r.prediction}, got {r.oracle}")
        return lines


def _ring_name(descriptor: dict) -> str:
    qs = descriptor.get("factors", [])
    return "F" + " x F".join(str(q) for q in qs) if qs else "?"


# ---------------------------------------------------------------------------
# sampling

# Checks are constant on classes, so sampling keeps every combination of
# support sizes, overlap size, covering-or-not and same-class-or-not, and
# caps only the count of interchangeable pairs inside each such signature.
#
# The ~2^(2k-1) class pairs are never listed.  The pairs of one signature
# are a `pairs.PairGroup`: a sequence whose length is a closed form and
# whose j-th item is unranked in O(k) from three combinadic ranks.  `_draw`
# picks indices from the length alone, with one generator seeded by the
# seed, suite and signature, and reads only those items.


def _draw(population: Sequence, cap: int, key: str) -> list:
    """`population` in order if it has at most `cap` items, else `cap` of them drawn with seed `key`, sorted."""
    n = len(population)
    if n <= cap:
        return list(population)
    return sorted(population[j] for j in random.Random(key).sample(range(n), cap))


def _sample_classes(G: GraphView, seed: int, suite: str, cap: int) -> list[int]:
    groups: dict[int, list[int]] = {}
    for m in G.classes:
        groups.setdefault(m.bit_count(), []).append(m)
    chosen: list[int] = []
    for size in sorted(groups):
        chosen += _draw(groups[size], cap, f"{seed}:{suite}:{size}")
    return chosen


def _pair_population(G: GraphView) -> dict[tuple, Sequence[tuple[int, int]]]:
    """Signature -> its mask pairs (a, b), |a| <= |b|, the smaller mask first on a tie.

    A signature is (|a|, |b|, |a & b|, covering, same class); a same-class
    pair is (m, m), for a class of at least two vertices: one that meets a
    coordinate of size above 2, which only Γ has.
    """
    groups: dict[tuple, Sequence[tuple[int, int]]] = dict(pair_groups(G.ring.k))
    odd = ~G.twos
    for m in G.classes:
        if m & odd:
            n = m.bit_count()
            groups.setdefault((n, n, n, False, True), []).append((m, m))
    return groups


def _sample_pairs(G: GraphView, seed: int, suite: str, cap: int) -> list[tuple[Vertex, Vertex]]:
    # a same-class pair (m, m) is drawn as copies 0 and 1; only the kept
    # pairs become vertices
    groups = _pair_population(G)
    chosen: list[tuple[Vertex, Vertex]] = []
    for sig in sorted(groups, key=repr):
        pairs = _draw(groups[sig], cap, f"{seed}:{suite}:{sig}")
        chosen.extend((Vertex(a, 0), Vertex(b, int(a == b))) for a, b in pairs)
    return chosen


def _wit(u: Vertex, v: Vertex) -> str:
    return f"{u.render()} | {v.render()}"


def _rec(
    check_id: str,
    prediction: object,
    oracle: object,
    witness: str,
    ok: bool,
    note: str | None = None,
) -> CheckRecord:
    return CheckRecord(
        check_id=check_id,
        verdict=Verdict.CONFIRMED if ok else Verdict.VIOLATED,
        prediction=prediction,
        oracle=oracle,
        witness=witness,
        note=note,
    )


def _na(check_id: str, witness: str, note: str) -> CheckRecord:
    return CheckRecord(
        check_id=check_id,
        verdict=Verdict.NOT_APPLICABLE,
        prediction=None,
        oracle=None,
        witness=witness,
        note=note,
    )


# ---------------------------------------------------------------------------
# predictions


def _predict_distance(ring: Ring, mu: int, mv: int) -> int:
    cu = cozero_set(ring, Ideal(mu))
    cv = cozero_set(ring, Ideal(mv))
    if cu & cv == 0:
        return 1
    if cu | cv != ring.full_mask:
        return 2
    return 3


def _predict_orthogonal(ring: Ring, mu: int, mv: int) -> bool:
    cu = cozero_set(ring, Ideal(mu))
    cv = cozero_set(ring, Ideal(mv))
    return cu & cv == 0 and cu | cv == ring.full_mask


def _predict_on_triangle(ring: Ring, mask: int) -> bool:
    return not is_singleton(zero_set(ring, Ideal(mask)))


def _two_is_unit(ring: Ring) -> bool:
    return 2 not in ring.qs


# ---------------------------------------------------------------------------
# suites


def _suite_adjacency(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    zero = ring.zero()
    for u, v in _sample_pairs(Gg, seed, "adjacency.gamma", cap):
        pred = u.mask & v.mask == 0
        orc = ring.mul(vertex_element(ring, u), vertex_element(ring, v)) == zero
        out.append(_rec("adjacency.gamma", pred, orc, _wit(u, v), pred == orc))
    for u, v in _sample_pairs(Ga, seed, "adjacency.ag", cap):
        pred = u.mask & v.mask == 0
        orc, scan = _ideal_product_is_zero(ring, u.mask, v.mask)
        out.append(_rec("adjacency.ag", pred, orc, _wit(u, v), pred == orc))
        if scan is not None and scan != orc:
            out.append(_rec("adjacency.ag.generator-scan", orc, scan, _wit(u, v), False))


def _support_generator(ring: Ring, mask: int):
    return ring.element(tuple(1 if (mask >> i) & 1 else 0 for i in range(ring.k)))


def _ideal_product_is_zero(ring: Ring, mu: int, mv: int) -> tuple[bool, bool | None]:
    """Whether I_u * I_v = 0, by multiplying generators and by a full scan.

    The scan multiplies every element pair when there are at most
    PRODUCT_SCAN_LIMIT of them, and is None above that.  The two answers
    must agree.  Both member lists are scanned in descending lex order, so
    that a nonzero product shows first: the first pair has full support in
    both ideals, and `all` stops there.  A zero answer still multiplies
    every pair, so the order never changes the answer.
    """
    zero = ring.zero()
    result = ring.mul(_support_generator(ring, mu), _support_generator(ring, mv)) == zero
    size = 1
    for i in iter_bits(mu):
        size *= ring.qs[i]
    for i in iter_bits(mv):
        size *= ring.qs[i]
    if size > PRODUCT_SCAN_LIMIT:
        return result, None
    inner = elements_of_ideal(ring, Ideal(mv))[::-1]
    outer = elements_of_ideal(ring, Ideal(mu))[::-1]
    scan = all(ring.mul(a, b) == zero for a in outer for b in inner)
    return result, scan


def _suite_distance(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    for G, check_id in ((Gg, "distance.gamma"), (Ga, "distance.ag")):
        for u, v in _sample_pairs(G, seed, check_id, cap):
            pred = _predict_distance(ring, u.mask, v.mask)
            orc = distance(G, u, v)
            out.append(_rec(check_id, pred, orc, _wit(u, v), pred == orc))


def _suite_eccentricity(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    for G, check_id in ((Gg, "ecc.gamma"), (Ga, "ecc.ag")):
        for m in _sample_classes(G, seed, check_id, cap):
            pred = 2 if m.bit_count() == 1 else 3
            orc = class_eccentricity(G, m)
            out.append(_rec(check_id, pred, orc, Vertex(m, 0).render(), pred == orc))


def _suite_radius(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    rg = radius(Gg)
    ra = radius(Ga)
    out.append(_rec("radius.gamma", 2, rg, "", rg == 2))
    out.append(_rec("radius.ag", 2, ra, "", ra == 2))
    out.append(_rec("radius.equal", True, rg == ra, f"radius {rg} vs {ra}", rg == ra))


def _suite_triangle(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    for G, check_id in ((Gg, "triangle.gamma"), (Ga, "triangle.ag")):
        for m in _sample_classes(G, seed, check_id, cap):
            pred = _predict_on_triangle(ring, m)
            orc, _ = is_triangle_vertex(G, Vertex(m, 0))
            out.append(_rec(check_id, pred, orc, Vertex(m, 0).render(), pred == orc))
    for G, check_id in ((Gg, "triangulated.gamma"), (Ga, "triangulated.ag")):
        # a class is off every triangle when its zero set is one prime: the kernel of {P_i}
        pred = not any(kernel(ring, 1 << i).mask in G.classes for i in range(ring.k))
        orc, failing = is_triangulated(G)
        witness = "" if failing is None else failing.render()
        out.append(_rec(check_id, pred, orc, witness, pred == orc))


def _suite_orthogonal(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    for G, check_id in ((Gg, "orthogonal.gamma"), (Ga, "orthogonal.ag")):
        for u, v in _sample_pairs(G, seed, check_id, cap):
            pred = _predict_orthogonal(ring, u.mask, v.mask)
            orc = orthogonal(G, u, v)
            out.append(_rec(check_id, pred, orc, _wit(u, v), pred == orc))


def _suite_girth(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    full = ring.full_mask
    two_unit = _two_is_unit(ring)

    for u, v in _sample_pairs(Gg, seed, "girth.gamma", cap):
        mu, mv = u.mask, v.mask
        w = _wit(u, v)
        disjoint = mu & mv == 0
        dense = (mu | mv) == full
        meet = not disjoint
        gi = girth_through(Gg, u, v).length

        out.append(
            _rec("girth.gamma.three", disjoint and not dense, gi == 3, w, (disjoint and not dense) == (gi == 3))
        )
        if two_unit and disjoint and dense:
            out.append(_rec("girth.gamma.four-orthogonal", 4, gi, w, gi == 4))
        if meet and not dense:
            if two_unit:
                out.append(_rec("girth.gamma.four-meeting", 4, gi, w, gi == 4))
            else:
                out.append(
                    _na(
                        "girth.gamma.four-meeting",
                        w,
                        "the four-cycle conclusion needs 2 invertible; with a factor of "
                        "size 2 the pair may share a single neighbor and sit on a "
                        "five-cycle instead",
                    )
                )
        if meet and gi == 4:
            out.append(_rec("girth.gamma.four-meeting-converse", True, not dense, w, not dense))
        if two_unit and meet and dense:
            out.append(_rec("girth.gamma.six", 6, gi, w, gi == 6))
        if gi == 5:
            # vertices supported off both masks are exactly the common neighbors
            cond = meet and Gg.degree_of_mask(mu | mv) == 1
            out.append(
                _rec(
                    "girth.gamma.isolated-point",
                    True,
                    cond,
                    w,
                    cond,
                    note="a five-cycle through a pair forces overlapping supports with exactly one common neighbor",
                )
            )

    for u, v in _sample_pairs(Ga, seed, "girth.ag", cap):
        mu, mv = u.mask, v.mask
        w = _wit(u, v)
        disjoint = mu & mv == 0
        rest = full & ~(mu | mv)
        dense = rest == 0
        meet = not disjoint
        pend = (full & ~mu).bit_count() == 1 or (full & ~mv).bit_count() == 1
        gi = girth_through(Ga, u, v).length

        out.append(
            _rec("girth.ag.three", disjoint and not dense, gi == 3, w, (disjoint and not dense) == (gi == 3))
        )
        if disjoint and dense and not pend:
            out.append(_rec("girth.ag.four-orthogonal", 4, gi, w, gi == 4))
        if meet and rest.bit_count() >= 2:
            out.append(_rec("girth.ag.four-meeting", 4, gi, w, gi == 4))
        if meet and rest.bit_count() == 1 and not pend:
            out.append(_rec("girth.ag.five-range", [4, 5], gi, w, gi in (4, 5)))
        if gi == 5:
            cond = meet and rest.bit_count() == 1
            out.append(_rec("girth.ag.isolated-point", True, cond, w, cond))

    out.append(
        _na(
            "girth.ag.equal-closure",
            "",
            "distinct nonzero ideals always have distinct closed hulls in these rings, "
            "so the equal-closure clause never fires; recorded as proven unrealizable",
        )
    )


def _suite_domination(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    k = ring.k
    tg = domination(Gg, total=True)
    ta = domination(Ga, total=True)
    pg = domination(Gg, total=False)
    pa = domination(Ga, total=False)
    sizes = f"dt(G)={pg.size} dt_t(G)={tg.size} dt(A)={pa.size} dt_t(A)={ta.size}"

    out.append(_rec("domination.total.gamma", k, tg.size, sizes, tg.size == k))
    out.append(_rec("domination.total.ag", k, ta.size, sizes, ta.size == k))
    pred_ag = k if k >= 3 else 1
    out.append(_rec("domination.ag", pred_ag, pa.size, sizes, pa.size == pred_ag))
    if k >= 3:
        out.append(_rec("domination.gamma-le-ag", True, pg.size <= pa.size, sizes, pg.size <= pa.size))
    else:
        out.append(
            _na(
                "domination.gamma-le-ag",
                sizes,
                "with two odd factors the element graph needs two vertices while the "
                "ideal graph needs one, so the comparison is only claimed for three or "
                "more factors",
            )
        )
    ordered = pg.size <= tg.size <= 2 * pg.size and pa.size <= ta.size <= 2 * pa.size
    out.append(_rec("domination.bound", True, ordered, sizes, ordered))
    certified = all(r.certified for r in (tg, ta, pg, pa))
    out.append(_rec("domination.finite", True, certified, sizes, certified))


def _suite_spectrum(ring: Ring, Gg: GraphView | None, Ga: GraphView | None, seed: int, cap: int, out: list) -> None:
    mps = min_primes(ring)
    prime_masks = sorted(p.ideal.mask for p in mps)

    if ring.k >= 2:
        maxi = maximal_annihilating(ring)
        orc_masks = sorted(i.mask for i in maxi)
        out.append(
            _rec(
                "spectrum.maximal-are-min-primes",
                [_render_mask(m) for m in prime_masks],
                [_render_mask(m) for m in orc_masks],
                "",
                orc_masks == prime_masks,
            )
        )
        # the annihilating family, 0 < m < full, less what lies inside a maximal member
        _, has, family = _lattice(ring.k)
        left = family & ~_closed_down(has, sum(1 << mx.mask for mx in maxi))
        contained = not left
        bad = "" if contained else _render_mask(_lowest(left))
        out.append(_rec("spectrum.contained-in-maximal", True, contained, bad, contained))
    else:
        note = "a field has no annihilating ideals"
        out.append(_na("spectrum.maximal-are-min-primes", "", note))
        out.append(_na("spectrum.contained-in-maximal", "", note))

    status, kern = fixed_place_status(ring)
    out.append(
        _rec(
            "spectrum.fixed-place",
            PlaceStatus.FIXED_PLACE.value,
            status.value,
            f"kernel mask {kern.mask}",
            status is PlaceStatus.FIXED_PLACE,
        )
    )

    bs = bourbaki_primes(ring)
    orc = sorted(p.ideal.mask for p in bs.primes)
    out.append(
        _rec(
            "spectrum.bourbaki-witnesses",
            [_render_mask(m) for m in prime_masks],
            [_render_mask(m) for m in orc],
            "",
            orc == prime_masks,
        )
    )


def _render_mask(mask: int) -> str:
    return Vertex(mask, 0).render()


def _suite_retract(ring: Ring, Gg: GraphView, Ga: GraphView, seed: int, cap: int, out: list) -> None:
    rep = retract_check(ring)
    out.append(_rec("retract.sz-identity", True, rep.is_identity, "", rep.is_identity))
    witness = rep.failures[0] if rep.failures else ""
    out.append(_rec("retract.homomorphism", True, rep.is_retraction, witness, rep.is_retraction))
    both = rep.adjacency_mismatch is None
    bad = "" if both else _wit(*(Vertex(m, 0) for m in rep.adjacency_mismatch))
    out.append(_rec("retract.adjacency-biconditional", True, both, bad, both))


# suite -> (runner, the check ids recorded as not applicable on a field, or
# None when the runner handles a field itself), in report order
_SUITES = {
    "adjacency": (_suite_adjacency, ("adjacency.gamma", "adjacency.ag")),
    "distance": (_suite_distance, ("distance.gamma", "distance.ag")),
    "eccentricity": (_suite_eccentricity, ("ecc.gamma", "ecc.ag")),
    "radius": (_suite_radius, ("radius.gamma", "radius.ag", "radius.equal")),
    "triangle": (_suite_triangle, ("triangle.gamma", "triangle.ag", "triangulated.gamma", "triangulated.ag")),
    "orthogonal": (_suite_orthogonal, ("orthogonal.gamma", "orthogonal.ag")),
    "girth": (_suite_girth, ("girth.gamma.three", "girth.ag.three")),
    "domination": (
        _suite_domination,
        (
            "domination.total.gamma", "domination.total.ag", "domination.ag",
            "domination.gamma-le-ag", "domination.bound", "domination.finite",
        ),
    ),
    "spectrum": (_suite_spectrum, None),
    "retract": (_suite_retract, ("retract.sz-identity", "retract.homomorphism", "retract.adjacency-biconditional")),
}

ALL_SUITES = tuple(_SUITES)


def select_suites(suites: tuple[str, ...] | list[str] | None, per_signature_cap: int) -> tuple[str, ...]:
    """The suites to run, in report order; raises on an unknown name or a cap below 1."""
    bad = sorted(set(suites or ()) - set(ALL_SUITES))
    if bad:
        raise InputFormatError(f"unknown suites: {', '.join(bad)} (known: {', '.join(ALL_SUITES)})")
    if per_signature_cap < 1:
        raise InputFormatError(f"the pair cap must be at least 1, got {per_signature_cap}")
    return ALL_SUITES if suites is None else tuple(s for s in ALL_SUITES if s in set(suites))


def run_verification(
    ring: Ring,
    suites: tuple[str, ...] | list[str] | None = None,
    seed: int = 0,
    per_signature_cap: int = 6,
    registry: Registry | None = None,
) -> VerificationReport:
    chosen = select_suites(suites, per_signature_cap)
    reg = registry if registry is not None else load_registry()

    records: list[CheckRecord] = []
    graphs = (build_gamma(ring), build_ag(ring)) if ring.k >= 2 else (None, None)
    for suite in chosen:
        runner, field_ids = _SUITES[suite]
        if ring.k >= 2 or field_ids is None:
            runner(ring, *graphs, seed, per_signature_cap, records)
        else:
            records.extend(_na(cid, "", "the ring is a field; both graphs are empty") for cid in field_ids)

    for i, record in enumerate(records):
        if record.verdict is Verdict.VIOLATED:
            entry = reg.lookup(record.check_id, ring)
            if entry is not None:
                records[i] = record._replace(registered=True, note=entry.reason)

    return VerificationReport(
        ring=ring.describe(), suites=chosen, seed=seed, records=records
    )
