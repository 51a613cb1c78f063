import json
import math
import os
import stat
import tracemalloc

import pytest

from zdgraph import (
    InternalInconsistency,
    PrimeFactors,
    SquarefreeModulus,
    Vertex,
    build_ag,
    build_gamma,
    build_ring,
    girth_through,
    is_triangulated,
)
from zdgraph import cli, graphs, rings, spectrum
from zdgraph.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATIONS, main
from zdgraph.tables import table_to_json, zn_tables


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refuse_ring_building(monkeypatch):
    """Make building the command's ring fail the test: a bad output target is refused before it."""

    def refuse(args):
        raise AssertionError("the ring was built before the output target was checked")

    monkeypatch.setattr(cli, "_ring_from_args", refuse)


class TestInspect:
    def test_modulus_ring(self, capsys):
        code, out, _ = run(capsys, "inspect", "--zn", "30")
        assert code == EXIT_OK
        assert "30" in out and "(2)" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "inspect", "--zn", "30", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ring"]["factors"] == [2, 3, 5]
        assert doc["gamma"]["vertices"] == 21
        assert doc["gamma"]["edges"] == 38

    def test_fields_ring(self, capsys):
        code, out, _ = run(capsys, "inspect", "--fields", "3,3", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["ring"]["factors"] == [3, 3]

    def test_fields_keep_the_given_order(self, capsys):
        # two orders of one ring describe differently; only --zn sorts
        rings = []
        for args in (("--fields", "3,2,5"), ("--fields", "2,3,5"), ("--zn", "30")):
            code, out, _ = run(capsys, "inspect", *args, "--json")
            assert code == EXIT_OK
            rings.append(json.loads(out)["ring"]["factors"])
        assert rings == [[3, 2, 5], [2, 3, 5], [2, 3, 5]]

    def test_field_has_empty_graphs(self, capsys):
        # a field has no zero divisors; inspect succeeds with null graphs
        code, out, _ = run(capsys, "inspect", "--zn", "7", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["gamma"] is None and doc["ag"] is None
        assert doc["maximal_annihilating"] == []

    def test_fourteen_factors_match_closed_forms(self, capsys):
        # one BFS per class size and a lattice transform for maximality keep
        # this fast; a per-class BFS or a pairwise scan takes tens of seconds
        qs = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        k = len(qs)
        code, out, _ = run(capsys, "inspect", "--fields", ",".join(map(str, qs)), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        prod = math.prod
        assert doc["gamma"] == {
            "vertices": prod(qs) - prod(q - 1 for q in qs) - 1,
            "edges": (prod(2 * q - 1 for q in qs) - 2 * prod(qs) + 1) // 2,
            "classes": 2**k - 2,
            "radius": 2,
        }
        assert doc["ag"] == {
            "vertices": 2**k - 2,
            "edges": (3**k - 2 ** (k + 1) + 1) // 2,
            "classes": 2**k - 2,
            "radius": 2,
        }
        # the maximal annihilating ideals are the k minimal primes
        assert len(doc["maximal_annihilating"]) == k
        assert all(len(ideal.split(",")) == k - 1 for ideal in doc["maximal_annihilating"])

    def test_twenty_factors_list_no_annihilating_ideals(self, capsys):
        # maximality and the Bourbaki kernel are mask expressions: a few MB,
        # first imports included; a list of the 2^20 - 2 annihilating
        # `Ideal`s is far above 16 MB
        qs = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71]
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "inspect", "--fields", ",".join(map(str, qs)), "--json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["fixed_place"] == "FixedPlace"
        assert len(doc["maximal_annihilating"]) == len(qs)
        assert peak < 16_000_000

    def test_whole_graph_facts_scan_no_classes(self, capsys, monkeypatch):
        # maximality, the Bourbaki kernel, triangulation and isolated points
        # are mask expressions and radius runs one BFS per class size; a walk
        # over the 2^12 - 2 classes or ideals makes thousands of these calls
        qs = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
        calls = dict.fromkeys(("Ideal", "_class_depth", "weight", "is_triangle_vertex", "ideal lists"), 0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(rings.Ideal, "__init__", counted("Ideal", rings.Ideal.__init__))
        monkeypatch.setattr(graphs.GraphView, "weight", counted("weight", graphs.GraphView.weight))
        for name in ("_class_depth", "is_triangle_vertex"):
            monkeypatch.setattr(graphs, name, counted(name, getattr(graphs, name)))
        for module in (rings, spectrum):
            for name in ("annihilating_ideals", "enumerate_ideals"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted("ideal lists", getattr(module, name)))

        code, out, _ = run(capsys, "inspect", "--fields", ",".join(map(str, qs)), "--json")
        assert code == EXIT_OK and json.loads(out)["gamma"]["radius"] == 2
        ring = build_ring(PrimeFactors(qs))
        # a class missing one coordinate is disjoint from one class only
        assert all(not is_triangulated(G)[0] for G in (build_gamma(ring), build_ag(ring)))
        assert all(spectrum.is_isolated_point(ring, p) for p in range(len(qs)))
        assert all(count <= 5 * len(qs) for count in calls.values()), calls

    def test_non_squarefree_rejected(self, capsys):
        code, _, err = run(capsys, "inspect", "--zn", "12")
        assert code == EXIT_INPUT
        assert "not reduced" in err.lower()

    def test_bad_prime_rejected(self, capsys):
        code, _, err = run(capsys, "inspect", "--fields", "4,3")
        assert code == EXIT_INPUT

    def test_factor_above_the_bound_rejected_at_once(self, capsys):
        code, out, err = run(capsys, "inspect", "--fields", "2,1000000000000000003")
        assert code == EXIT_INPUT
        assert "factor 1000000000000000003 is above the 10^9 factorization bound" in err
        assert out == "" and "Traceback" not in err

    def test_factor_cap_is_resource_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ZDGRAPH_MAX_FACTORS", "2")
        code, _, err = run(capsys, "inspect", "--zn", "30")
        assert code == EXIT_RESOURCE


class TestExport:
    def test_dot_compressed(self, capsys):
        code, out, _ = run(capsys, "export", "--zn", "30", "--graph", "gamma")
        assert code == EXIT_OK
        assert out.startswith("graph")
        assert "S={1,2}" in out and "w=" in out

    def test_dot_explicit(self, capsys):
        code, out, _ = run(
            capsys, "export", "--zn", "30", "--graph", "gamma", "--explicit"
        )
        assert code == EXIT_OK
        assert out.count(" -- ") == 38

    def test_explicit_above_cap_writes_nothing(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ZDGRAPH_EXPLICIT_CAP", "10")
        target = tmp_path / "F"
        code, out, err = run(
            capsys, "export", "--zn", "30", "--graph", "gamma", "--explicit", "--output", str(target)
        )
        assert code == EXIT_RESOURCE
        assert "resource cap" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_json_graph(self, capsys):
        code, out, _ = run(
            capsys, "export", "--zn", "30", "--graph", "ag", "--format", "json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["nodes"]) == 6
        assert len(doc["edges"]) == 6

    def test_output_file_and_stability(self, capsys, tmp_path):
        a = tmp_path / "a.dot"
        b = tmp_path / "b.dot"
        assert main(["export", "--zn", "105", "--graph", "gamma", "--output", str(a)]) == EXIT_OK
        assert main(["export", "--zn", "105", "--graph", "gamma", "--output", str(b)]) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_clean_ring_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--zn", "30", "--seed", "7")
        assert code == EXIT_OK
        assert "violated" in out

    def test_registered_violations_still_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--zn", "6", "--seed", "7")
        assert code == EXIT_OK
        assert "registered" in out

    def test_empty_registry_exits_two(self, capsys, tmp_path):
        reg = tmp_path / "empty.json"
        reg.write_text(json.dumps({"format": 1, "entries": []}))
        code, _, _ = run(
            capsys, "verify", "--zn", "6", "--seed", "7", "--registry", str(reg)
        )
        assert code == EXIT_VIOLATIONS

    def test_unknown_suite_error_lists_the_known_suites(self, capsys):
        # the --suites help names no suite, so the error is where they are listed
        code, out, err = run(capsys, "verify", "--zn", "30", "--suites", "nope")
        assert code == EXIT_INPUT
        known = "adjacency, distance, eccentricity, radius, triangle, orthogonal, girth, domination, spectrum, retract"
        assert f"unknown suites: nope (known: {known})" in err
        assert "Traceback" not in err and out == ""

    def test_registry_with_misspelt_key_exits_three(self, capsys, tmp_path):
        reg = tmp_path / "typo.json"
        entry = {"check_id": "radius.gamma", "applies": {"has_factor2": True}, "reason": "r"}
        reg.write_text(json.dumps({"format": 1, "entries": [entry]}))
        code, out, err = run(capsys, "verify", "--zn", "6", "--registry", str(reg))
        assert code == EXIT_INPUT
        assert "'has_factor2'" in err
        assert "Traceback" not in err and out == ""

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "verify", "--zn", "30", "--seed", "7", "--report", str(path)
        )
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["summary"]["violated"] == 0

    def test_failed_report_write_leaves_no_temp_file(self, capsys, tmp_path):
        target = tmp_path / "D"
        target.mkdir()
        code, _, err = run(capsys, "verify", "--zn", "30", "--report", str(target))
        assert code == EXIT_INPUT
        assert "zdgraph:" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("export", "--zn", "30", "--graph", "gamma", "--output"), ("verify", "--zn", "30", "--report")],
        ids=["export", "verify"],
    )
    def test_directory_target_is_refused_before_any_temp_file(self, capsys, tmp_path, monkeypatch, argv):
        target = tmp_path / "D"
        target.mkdir()
        refuse_ring_building(monkeypatch)
        code, out, err = run(capsys, *argv, f"{target}{os.sep}")
        assert code == EXIT_INPUT
        assert f"Is a directory: '{target}'" in err
        assert ".tmp" not in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["D"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [("export", "--zn", "30", "--graph", "ag", "--output"), ("verify", "--zn", "30", "--report")],
        ids=["export", "verify"],
    )
    @pytest.mark.parametrize(
        "parent, message",
        [("missing", "No such file or directory"), ("F", "Not a directory")],
        ids=["missing-parent", "file-parent"],
    )
    def test_bad_parent_names_the_target_not_a_temp_file(
        self, capsys, tmp_path, monkeypatch, argv, parent, message
    ):
        (tmp_path / "F").write_bytes(b"")
        refuse_ring_building(monkeypatch)
        target = tmp_path / parent / "x.json"
        code, out, err = run(capsys, *argv, str(target))
        assert code == EXIT_INPUT
        assert f"{message}: '{target}'" in err
        assert ".tmp" not in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["F"]

    def test_suite_subset_and_unknown(self, capsys):
        code, _, _ = run(capsys, "verify", "--zn", "30", "--suites", "radius,retract")
        assert code == EXIT_OK
        code, _, err = run(capsys, "verify", "--zn", "30", "--suites", "bogus")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_pair_cap_below_one_is_input_error(self, capsys, cap):
        code, out, err = run(capsys, "verify", "--zn", "30", "--pair-cap", cap)
        assert code == EXIT_INPUT
        assert f"pair cap must be at least 1, got {cap}" in err
        assert "Traceback" not in err and out == ""

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "z6.json"
        path.write_text(json.dumps(table_to_json(zn_tables(6))))
        code, out, _ = run(capsys, "verify", "--table", str(path), "--seed", "7")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["inspect", "verify"])
    def test_zero_ring_table_is_input_error(self, capsys, tmp_path, command):
        path = tmp_path / "z1.json"
        path.write_text(json.dumps(table_to_json(zn_tables(1))))
        code, out, err = run(capsys, command, "--table", str(path))
        assert code == EXIT_INPUT
        assert "zero ring" in err
        assert "Traceback" not in err and out == ""

    def test_garbage_table_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--table", str(path))
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "content, reason",
        [
            (b"\xff\xfe" + json.dumps(table_to_json(zn_tables(2))).encode(), "can't decode byte 0xff"),
            (b"[" * 200_000, "maximum recursion depth exceeded"),
        ],
        ids=["not-utf8", "too-deep"],
    )
    @pytest.mark.parametrize("option", ["--table", "--registry"])
    def test_unreadable_json_is_input_error(self, capsys, tmp_path, content, reason, option):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        ring = ["--zn", "6"] if option == "--registry" else []
        code, out, err = run(capsys, "verify", *ring, option, str(path))
        assert code == EXIT_INPUT
        assert str(path) in err and reason in err
        assert "Traceback" not in err and out == ""

    def test_boolean_table_entry_is_input_error(self, capsys, tmp_path):
        doc = table_to_json(zn_tables(2))
        doc["add"][0][1] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--table", str(path))
        assert code == EXIT_INPUT
        assert "add entry True is not an index below 2" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--pair-cap", "0"), "pair cap must be at least 1, got 0"),
            (("--suites", ","), "--suites given but empty"),
            (("--suites", "nope"), "unknown suites: nope"),
            (("--registry", "absent.json"), "absent.json"),
        ],
        ids=["pair-cap", "empty-suites", "unknown-suite", "missing-registry"],
    )
    def test_bad_arguments_fail_before_the_table_is_read(self, capsys, tmp_path, monkeypatch, option, message):
        # the table is bad too, so the message shows which was checked first
        monkeypatch.chdir(tmp_path)
        doc = table_to_json(zn_tables(2))
        doc["add"][0][1] = 7
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--table", "bad.json", *option)
        assert code == EXIT_INPUT
        assert message in err and "add entry" not in err
        assert "Traceback" not in err and out == ""

    def test_missing_table_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--table", str(tmp_path / "absent.json"))
        assert code == EXIT_INPUT


class TestTargets:
    """An output path that is a symlink is written through; one that is no regular file is refused."""

    COMMANDS = [("export", "--zn", "30", "--graph", "ag", "--output"), ("verify", "--zn", "30", "--report")]

    @pytest.mark.parametrize("argv", COMMANDS, ids=["export", "verify"])
    @pytest.mark.parametrize("existing", [True, False], ids=["to-file", "to-missing-file"])
    def test_symlink_is_written_through(self, capsys, tmp_path, argv, existing):
        (tmp_path / "sub").mkdir()
        real = tmp_path / "sub" / "real.json"
        if existing:
            real.write_bytes(b"old bytes\n")
        link = tmp_path / "link.json"
        link.symlink_to(os.path.join("sub", "real.json"))
        code, _, err = run(capsys, *argv, str(link))
        assert code == EXIT_OK, err
        assert link.is_symlink() and os.readlink(link) == os.path.join("sub", "real.json")
        assert run(capsys, *argv, str(tmp_path / "direct.json"))[0] == EXIT_OK
        assert real.read_bytes() == (tmp_path / "direct.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["direct.json", "link.json", "sub"]
        assert list((tmp_path / "sub").iterdir()) == [real]

    @pytest.mark.parametrize("argv", COMMANDS, ids=["export", "verify"])
    @pytest.mark.parametrize("kind", ["fifo", "link-to-fifo", "symlink-loop"])
    def test_non_regular_target_is_refused_before_any_work(self, capsys, tmp_path, monkeypatch, argv, kind):
        os.mkfifo(tmp_path / "fifo")
        (tmp_path / "link-to-fifo").symlink_to("fifo")
        (tmp_path / "symlink-loop").symlink_to("loop-back")
        (tmp_path / "loop-back").symlink_to("symlink-loop")
        before = sorted((p.name, os.lstat(p).st_mode) for p in tmp_path.iterdir())
        refuse_ring_building(monkeypatch)
        target = tmp_path / kind
        code, out, err = run(capsys, *argv, str(target))
        assert code == EXIT_INPUT
        assert f"Not a regular file: '{target}'" in err
        assert ".tmp" not in err and "Traceback" not in err and out == ""
        assert sorted((p.name, os.lstat(p).st_mode) for p in tmp_path.iterdir()) == before
        assert stat.S_ISFIFO(os.lstat(tmp_path / "fifo").st_mode)


class TestDominate:
    def test_gamma_total(self, capsys):
        code, out, _ = run(capsys, "dominate", "--zn", "30", "--graph", "gamma", "--total")
        assert code == EXIT_OK
        assert "3" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "dominate", "--zn", "30", "--graph", "gamma", "--total", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["size"] == 3
        assert doc["certified"] is True
        assert sorted(doc["witness"]) == ["10", "15", "6"]

    def test_ideal_graph(self, capsys):
        code, out, _ = run(capsys, "dominate", "--fields", "2,2,2", "--graph", "ag", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["size"] == 3

    def test_budget_hit_is_reported_and_violates_finite(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(graphs, "DOMINATION_NODE_BUDGET", 1)
        code, out, _ = run(capsys, "dominate", "--zn", "15", "--graph", "gamma")
        assert code == EXIT_OK
        assert "minimum dominating set has size 2 (NOT certified (budget hit))" in out
        report = tmp_path / "r.json"
        code, _, _ = run(capsys, "verify", "--zn", "15", "--suites", "domination", "--report", str(report))
        assert code == EXIT_VIOLATIONS
        records = json.loads(report.read_text())["records"]
        finite = [(r["verdict"], r["registered"]) for r in records if r["check_id"] == "domination.finite"]
        assert finite == [("Violated", False)]


class TestBatch:
    def test_small_sweep(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, _ = run(
            capsys,
            "batch",
            "--squarefree-below",
            "40",
            "--out-dir",
            str(out_dir),
            "--seed",
            "7",
        )
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert "zn0006.json" in names and "zn0030.json" in names
        assert "zn0012.json" not in names  # not squarefree
        assert "total" in out

    def test_moduli_list_and_determinism(self, capsys, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code, _, _ = run(
                capsys,
                "batch",
                "--moduli",
                "6,30,105",
                "--out-dir",
                str(d),
                "--seed",
                "7",
            )
            assert code == EXIT_OK
        for name in ("zn0006.json", "zn0030.json", "zn0105.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_pair_cap_below_one_is_input_error(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, err = run(capsys, "batch", "--moduli", "6,30", "--out-dir", str(out_dir), "--pair-cap", "-2")
        assert code == EXIT_INPUT
        assert "pair cap must be at least 1, got -2" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--squarefree-below", "10", "--suites", "nope"), "unknown suites: nope"),
            (("--moduli", "6,10", "--suites", "girth,nope"), "unknown suites: nope"),
            (("--squarefree-below", "2"), "--squarefree-below 2"),
            (("--squarefree-below", "0"), "--squarefree-below 0"),
            # refused before trial-dividing every n up to the bound
            (("--squarefree-below", "1000000002"), "moduli below 1000000002 go above the 10^9 factorization bound"),
        ],
    )
    def test_rejected_arguments_create_no_out_dir(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "batch", *argv, "--out-dir", str(out_dir))
        assert code == EXIT_INPUT
        assert message in err and "Traceback" not in err
        assert out == "" and not out_dir.exists()

    def test_empty_moduli_is_input_error(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "batch", "--moduli", ",", "--out-dir", str(out_dir))
        assert code == EXIT_INPUT
        assert "--moduli" in err and "Traceback" not in err
        assert out == "" and not out_dir.exists()

    def test_repeated_modulus_is_input_error(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "batch", "--moduli", "30,30,6", "--out-dir", str(out_dir))
        assert code == EXIT_INPUT
        assert "--moduli repeats 30" in err and "Traceback" not in err
        assert out == "" and not out_dir.exists()

    def test_bad_modulus_writes_no_report(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, out, err = run(capsys, "batch", "--moduli", "6,36", "--out-dir", str(out_dir))
        assert code == EXIT_INPUT
        assert "36" in err and "Traceback" not in err
        assert out == "" and not out_dir.exists()


class TestInternalInconsistency:
    """A fault patched into an engine trips its own check: exit 5, no traceback."""

    def test_girth_path_through_non_adjacent_class(self, capsys, monkeypatch):
        def faulty_path(lat, start, near, usable):
            # step into the lowest usable class that is not a neighbor of u
            return [graphs._lowest(usable & ~start)]

        monkeypatch.setattr(graphs, "_shortest_path", faulty_path)
        G = build_gamma(build_ring(SquarefreeModulus(30)))
        with pytest.raises(InternalInconsistency, match="non-edge"):
            girth_through(G, Vertex(0b011), Vertex(0b110))
        code, out, err = run(capsys, "verify", "--zn", "30", "--suites", "girth")
        assert code == EXIT_INTERNAL
        assert "zdgraph: internal inconsistency: girth witness contains a non-edge" in err
        assert "Traceback" not in err and out == ""

    def test_domination_witness_misses_a_class(self, capsys, monkeypatch):
        # every class counts as covered, so the search settles on an empty witness
        monkeypatch.setattr(graphs, "_neighbors", lambda lat, bits: lat[2])
        code, out, err = run(capsys, "dominate", "--zn", "6", "--graph", "gamma", "--json")
        assert code == EXIT_INTERNAL
        assert "zdgraph: internal inconsistency: class" in err and "not dominated" in err
        assert "Traceback" not in err and out == ""

    def test_domination_bounds_differ_at_three_factors(self, capsys, monkeypatch):
        # the empty choice seems to cover class {2,3} only, so the pack holds
        # two classes against the three single coordinates
        real = graphs._neighbors
        monkeypatch.setattr(graphs, "_neighbors", lambda lat, bits: real(lat, bits) if bits else 1 << 0b110)
        code, out, err = run(capsys, "dominate", "--zn", "30", "--graph", "gamma", "--json")
        assert code == EXIT_INTERNAL
        assert "zdgraph: internal inconsistency: domination bounds differ at 3 factors" in err
        assert "lower bound 2" in err and "upper bound 3" in err
        assert "Traceback" not in err and out == ""


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_argparse_errors_become_input_errors(self, capsys):
        code, _, err = run(capsys, "inspect")
        assert code == EXIT_INPUT

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "variable, argv",
        [
            ("ZDGRAPH_MAX_FACTORS", ["inspect", "--zn", "30"]),
            ("ZDGRAPH_EXPLICIT_CAP", ["export", "--zn", "30", "--graph", "gamma", "--explicit"]),
        ],
    )
    def test_unparsable_environment_integer_is_input_error(self, capsys, monkeypatch, variable, argv):
        monkeypatch.setenv(variable, "abc")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert variable in err and "'abc'" in err
        assert out == ""

    @pytest.mark.parametrize(
        "variable, argv",
        [
            ("ZDGRAPH_MAX_FACTORS", ["inspect", "--zn", "7"]),
            ("ZDGRAPH_EXPLICIT_CAP", ["export", "--zn", "6", "--graph", "gamma", "--explicit"]),
        ],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_environment_integer_below_one_is_input_error(self, capsys, monkeypatch, variable, argv, value):
        monkeypatch.setenv(variable, value)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert variable in err and repr(value) in err
        assert out == ""
