import json

import pytest

from zdgraph import (
    ALL_SUITES,
    InputFormatError,
    PrimeFactors,
    Registry,
    SquarefreeModulus,
    Verdict,
    build_ring,
    load_registry,
    run_verification,
)
from zdgraph.corpus import squarefree_moduli
from zdgraph.edge_cases import RegistryEntry
from zdgraph.exports import json_bytes
from zdgraph.verify import CheckRecord, VerificationReport


def violated(report):
    return [r for r in report.records if r.verdict is Verdict.VIOLATED]


class TestRegistry:
    def test_bundled_registry_loads(self):
        reg = load_registry()
        ids = sorted(e.check_id for e in reg.entries)
        assert ids == [
            "ecc.ag",
            "ecc.gamma",
            "radius.ag",
            "radius.equal",
            "radius.gamma",
        ]

    def test_entry_matching(self, z6, z30, f33):
        entry = RegistryEntry(
            check_id="radius.gamma", k=2, has_factor_2=True, reason="r"
        )
        assert entry.matches("radius.gamma", z6)
        assert not entry.matches("radius.gamma", f33)  # no factor of two
        assert not entry.matches("radius.gamma", z30)  # three factors
        assert not entry.matches("radius.ag", z6)

    def test_custom_registry_file(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(
            json.dumps(
                {
                    "format": 1,
                    "entries": [
                        {
                            "check_id": "radius.gamma",
                            "applies": {"k": 2, "has_factor_2": True},
                            "reason": "small case behaves differently",
                        }
                    ],
                }
            )
        )
        reg = load_registry(path)
        assert len(reg.entries) == 1

    def test_malformed_registry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": 99, "entries": []}))
        with pytest.raises(InputFormatError):
            load_registry(path)
        path.write_text(json.dumps({"format": 1, "entries": [{"check_id": 5}]}))
        with pytest.raises(InputFormatError):
            load_registry(path)
        # a misspelt key must not turn an entry into one that matches every ring
        for entry, key in (
            ({"check_id": "radius.gamma", "applies": {"has_factor2": True}, "reason": "r"}, "'has_factor2'"),
            ({"check_id": "radius.gamma", "apply": {"k": 2}, "reason": "r"}, "'apply'"),
            ({"check_id": "radius.gamma", "applies": {"k": True}, "reason": "r"}, "'applies.k'"),
            # a non-string id would be coerced to one that matches nothing
            ({"check_id": None, "reason": ["x"]}, "'check_id'"),
            ({"check_id": 5, "reason": "r"}, "'check_id'"),
            ({"check_id": "", "reason": "r"}, "'check_id'"),
            ({"check_id": "radius.gamma", "reason": ["x"]}, "'reason'"),
            ({"check_id": "radius.gamma", "reason": ""}, "'reason'"),
        ):
            path.write_text(json.dumps({"format": 1, "entries": [entry]}))
            with pytest.raises(InputFormatError, match=key):
                load_registry(path)


class TestSmallRingViolations:
    def test_z6_violations_all_registered(self, z6):
        report = run_verification(z6, seed=7)
        bad = violated(report)
        assert bad, "the two-factor ring with a factor of two must trip the registry"
        assert all(r.registered for r in bad)
        assert not report.has_unregistered_violations
        ids = sorted(r.check_id for r in bad)
        # both radii are 1 here, so they differ from the prediction but
        # still agree with each other: radius.equal stays confirmed
        assert ids == ["ecc.ag", "ecc.ag", "ecc.gamma", "radius.ag", "radius.gamma"]

    def test_f33_violations_all_registered(self, f33):
        report = run_verification(f33, seed=7)
        bad = violated(report)
        assert bad and all(r.registered for r in bad)
        # without a factor of two the element graph is a 4-cycle with
        # radius 2, so only the ideal-side records (and the cross-graph
        # radius comparison) trip
        assert {r.check_id for r in bad} == {"ecc.ag", "radius.ag", "radius.equal"}

    def test_empty_registry_surfaces_violations(self, z6):
        report = run_verification(z6, seed=7, registry=Registry(()))
        assert report.has_unregistered_violations
        assert all(not r.registered for r in violated(report))


class TestCleanRings:
    def test_z30_confirms_everything(self, z30):
        report = run_verification(z30, seed=7)
        counts = report.counts()
        assert counts["violated"] == 0
        assert counts["confirmed"] > 150
        assert not report.has_unregistered_violations

    def test_z210_girth_gating(self, z210):
        report = run_verification(z210, suites=("girth",), seed=7)
        assert not report.has_unregistered_violations
        recs = {r.check_id: [] for r in report.records}
        for r in report.records:
            recs[r.check_id].append(r)
        # a factor of two blocks the meeting-pair four-cycle conclusion
        gated = recs.get("girth.gamma.four-meeting", [])
        assert gated and all(r.verdict is Verdict.NOT_APPLICABLE for r in gated)
        pconv = recs.get("girth.gamma.four-meeting-converse", [])
        assert pconv and all(r.verdict is Verdict.CONFIRMED for r in pconv)
        iso = recs.get("girth.gamma.isolated-point", [])
        assert any(r.verdict is Verdict.CONFIRMED for r in iso)

    def test_z105_girth_clauses_apply(self, z105):
        report = run_verification(z105, suites=("girth",), seed=7)
        assert not report.has_unregistered_violations
        by_id = {}
        for r in report.records:
            by_id.setdefault(r.check_id, []).append(r.verdict)
        # two invertible: the four- and six-cycle clauses must actually fire
        assert Verdict.CONFIRMED in by_id["girth.gamma.four-meeting"]
        assert Verdict.CONFIRMED in by_id["girth.gamma.six"]

    def test_field_reports_not_applicable(self):
        f7 = build_ring(SquarefreeModulus(7))
        report = run_verification(f7, seed=7)
        counts = report.counts()
        assert counts["violated"] == 0
        assert counts["not_applicable"] > 0


    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_field_records_stand_for_checks_of_the_same_suite(self, suite, z30):
        f7 = build_ring(SquarefreeModulus(7))
        field_ids = {r.check_id for r in run_verification(f7, suites=(suite,)).records}
        ring_ids = {r.check_id for r in run_verification(z30, suites=(suite,)).records}
        assert field_ids and field_ids <= ring_ids


class TestReportShape:
    def test_deterministic_bytes(self, z30):
        a = run_verification(z30, seed=7).to_json_bytes()
        b = run_verification(z30, seed=7).to_json_bytes()
        assert a == b

    def test_seed_changes_sampling(self, z210):
        a = run_verification(z210, suites=("distance",), seed=1)
        b = run_verification(z210, suites=("distance",), seed=2)
        wa = {r.witness for r in a.records}
        wb = {r.witness for r in b.records}
        assert wa != wb

    def test_suite_subset(self, z30):
        report = run_verification(z30, suites=("radius", "retract"), seed=0)
        prefixes = {r.check_id.split(".")[0] for r in report.records}
        assert prefixes == {"radius", "retract"}

    def test_unknown_suite_rejected(self, z30):
        with pytest.raises(InputFormatError):
            run_verification(z30, suites=("no-such-suite",))

    def test_json_shape(self, z30):
        doc = json.loads(run_verification(z30, seed=7).to_json_bytes())
        assert doc["format"] == 1
        assert doc["ring"]["factors"] == [2, 3, 5]
        assert doc["suites"] == list(ALL_SUITES)
        assert doc["summary"]["violated"] == 0
        record = doc["records"][0]
        assert set(record) >= {"check_id", "verdict", "witness"}
        ids = [(r["check_id"], r["witness"]) for r in doc["records"]]
        assert ids == sorted(ids)

    def test_summary_lines_mention_counts(self, z30):
        report = run_verification(z30, seed=7)
        text = "\n".join(report.summary_lines())
        assert "confirmed" in text and "violated" in text


# text that JSON must escape, or that a %-template or a naive writer might mangle
AWKWARD = 'a "quote", a \\ backslash,\na newline,\ta tab, 100% \x00 and Ωμέγα ∅'


def _hand_built_reports():
    # every `_render` branch: bool, None, int, str, an integral and a
    # non-integral float, inf, NaN, list, tuple, set, a nested dict and an object
    # rendered by str(); records out of (check_id, witness) order
    values = [
        True, False, None, 0, -7, 10**30, AWKWARD, 2.0, 0.25, float("inf"), -float("inf"), float("nan"),
        [1, [2.5, "x", float("nan")], []], (3, 1.0), {3, 1, 2}, frozenset({"b", "a"}), {},
        {2: [float("inf"), None], "a": {"b": (AWKWARD, 4.0)}, "": set()}, 1 + 2j,
    ]
    records = [
        CheckRecord("z.last", Verdict.CONFIRMED, v, values[-1 - i], f"w{i % 3}", i % 2 == 0, (None, AWKWARD)[i % 2])
        for i, v in enumerate(values)
    ]
    records.append(CheckRecord(AWKWARD, Verdict.VIOLATED, AWKWARD, None, AWKWARD, True, AWKWARD))
    records.append(CheckRecord("a.first", Verdict.NOT_APPLICABLE, None, None, "", False, None))
    ring = {"kind": "product-of-prime-fields", "factors": [2, 3]}
    return [
        VerificationReport(ring=ring, suites=("radius", "spectrum"), seed=5, records=records),
        VerificationReport(ring={"kind": AWKWARD, "factors": []}, suites=(), seed=-1, records=[]),
    ]


class TestReportWriter:
    """`to_json_bytes` writes from a record template; `json_bytes(to_dict())` is its reference."""

    @staticmethod
    def mismatches(reports):
        return [(r.ring, r.seed) for r in reports if r.to_json_bytes() != json_bytes(r.to_dict())]

    def test_canonical_corpus(self, corpus):
        assert self.mismatches(run_verification(ring, seed=s) for ring in corpus for s in range(3)) == []

    def test_batch_300(self):
        rings = [build_ring(SquarefreeModulus(n)) for n in squarefree_moduli(300)]
        assert self.mismatches(run_verification(ring, seed=0) for ring in rings) == []

    def test_seven_factors(self):
        ring = build_ring(SquarefreeModulus(510510))
        assert self.mismatches(run_verification(ring, seed=s) for s in range(3)) == []

    def test_hand_built_reports(self):
        reports = _hand_built_reports()
        assert self.mismatches(reports) == []
        doc = json.loads(reports[0].to_json_bytes())
        assert doc["records"][0] == {
            "check_id": AWKWARD, "verdict": "Violated", "prediction": AWKWARD, "oracle": None,
            "witness": AWKWARD, "registered": True, "note": AWKWARD,
        }
        assert [r["check_id"] for r in doc["records"][1:3]] == ["a.first", "z.last"]
        # NaN is written as a string, as `json` would write the invalid token NaN
        predictions = [r["prediction"] for r in doc["records"]]
        assert "NaN" in predictions and [1, [2.5, "x", "NaN"], []] in predictions


class TestNativeVsTable:
    def test_byte_identical_reports(self, z6):
        from zdgraph.tables import zn_tables

        table = build_ring(zn_tables(6))
        native = run_verification(z6, seed=7).to_json_bytes()
        tabled = run_verification(table, seed=7).to_json_bytes()
        assert native == tabled


def test_domination_runs_above_fourteen_factors():
    # from three factors on the root bound meets the first incumbent, so
    # no search runs and large rings are checked in full
    ring = build_ring(PrimeFactors((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)))
    report = run_verification(ring, suites=("domination",), seed=0)
    assert [r.verdict for r in report.records] == [Verdict.CONFIRMED] * 6


def test_generator_scan_disagreement_is_a_record(monkeypatch, capsys):
    from zdgraph.cli import EXIT_VIOLATIONS, main
    from zdgraph.rings import Ring

    true_mul = Ring.mul

    def faulty_mul(self, a, b):
        # a wrong product for one non-generator element of the ideal on {2}
        product = true_mul(self, a, b)
        if (0, 2, 0) in (a.coords, b.coords) and product == self.zero():
            return self.element((1,) * self.k)
        return product

    monkeypatch.setattr(Ring, "mul", faulty_mul)
    report = run_verification(build_ring(SquarefreeModulus(30)), suites=["adjacency"])
    found = [r for r in report.records if r.check_id == "adjacency.ag.generator-scan"]
    assert found
    for r in found:
        assert r.verdict is Verdict.VIOLATED and not r.registered
        assert (r.prediction, r.oracle) == (True, False)  # generators say zero, the scan does not
    assert report.has_unregistered_violations

    assert main(["verify", "--zn", "30", "--suites", "adjacency"]) == EXIT_VIOLATIONS
    assert "!! adjacency.ag.generator-scan at " in capsys.readouterr().out


def test_adjacency_scan_makes_a_pinned_number_of_products(monkeypatch):
    from zdgraph.rings import Ring

    true_mul = Ring.mul
    calls = 0

    def counting_mul(self, a, b):
        nonlocal calls
        calls += 1
        return true_mul(self, a, b)

    monkeypatch.setattr(Ring, "mul", counting_mul)
    run_verification(build_ring(SquarefreeModulus(510510)), suites=["adjacency"], seed=0)
    # Exact, not a bound: the seed fixes the sampled pairs, the scan of an
    # adjacent pair multiplies every element pair, and that of a
    # non-adjacent pair stops at its first product, the largest members'.
    # Any change to sampling or to the scan's order moves this number, and
    # must move it on purpose.
    assert calls == 121_424


def test_descending_scan_still_reaches_the_last_pair(monkeypatch):
    from zdgraph.cli import EXIT_VIOLATIONS, main
    from zdgraph.rings import Ring

    true_mul = Ring.mul

    def faulty_mul(self, a, b):
        # a wrong product only for zero * zero, the last pair the scan makes
        if not any(a.coords) and not any(b.coords):
            return self.element((1,) * self.k)
        return true_mul(self, a, b)

    monkeypatch.setattr(Ring, "mul", faulty_mul)
    report = run_verification(build_ring(SquarefreeModulus(30)), suites=["adjacency"])
    found = [r for r in report.records if r.check_id == "adjacency.ag.generator-scan"]
    assert found
    for r in found:
        assert r.verdict is Verdict.VIOLATED and not r.registered
        assert (r.prediction, r.oracle) == (True, False)
    assert main(["verify", "--zn", "30", "--suites", "adjacency"]) == EXIT_VIOLATIONS


def test_a_wrong_zero_on_the_first_pair_does_not_end_the_scan(monkeypatch):
    from zdgraph.rings import Ring

    true_mul = Ring.mul
    hits = 0

    def largest(ring, a):
        # the lex-largest member of the ideal on its support: q - 1 there, else 0
        return any(a.coords) and all(c in (0, q - 1) for c, q in zip(a.coords, ring.qs))

    def faulty_mul(self, a, b):
        # a wrong zero for the first pair every scan makes
        nonlocal hits
        if largest(self, a) and largest(self, b):
            hits += 1
            return self.zero()
        return true_mul(self, a, b)

    monkeypatch.setattr(Ring, "mul", faulty_mul)
    report = run_verification(build_ring(SquarefreeModulus(2310)), suites=["adjacency"])
    ag = [r for r in report.records if r.check_id.startswith("adjacency.ag")]
    assert hits and any(r.oracle is False for r in ag)
    assert {r.check_id for r in ag} == {"adjacency.ag"}
    assert all(r.verdict is Verdict.CONFIRMED for r in ag)
