import json
import os

import pytest

from zdgraph.cli import EXIT_INPUT, EXIT_OK, EXIT_RESOURCE, EXIT_VIOLATIONS, main
from zdgraph.tables import table_to_json, zn_tables


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_field_has_empty_graphs(self, capsys):
        # a field has no zero divisors; inspect succeeds with null graphs
        code, out, _ = run(capsys, "inspect", "--zn", "7", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["gamma"] is None and doc["ag"] is None
        assert doc["maximal_annihilating"] == []

    def test_non_squarefree_rejected(self, capsys):
        code, _, err = run(capsys, "inspect", "--zn", "12")
        assert code == EXIT_INPUT
        assert "not reduced" in err.lower()

    def test_bad_prime_rejected(self, capsys):
        code, _, err = run(capsys, "inspect", "--fields", "4,3")
        assert code == EXIT_INPUT

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

    def test_suite_subset_and_unknown(self, capsys):
        code, _, _ = run(capsys, "verify", "--zn", "30", "--suites", "radius,retract")
        assert code == EXIT_OK
        code, _, err = run(capsys, "verify", "--zn", "30", "--suites", "bogus")
        assert code == EXIT_INPUT

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "z6.json"
        path.write_text(json.dumps(table_to_json(zn_tables(6))))
        code, out, _ = run(capsys, "verify", "--table", str(path), "--seed", "7")
        assert code == EXIT_OK

    def test_garbage_table_file(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--table", str(path))
        assert code == EXIT_INPUT

    def test_missing_table_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--table", str(tmp_path / "absent.json"))
        assert code == EXIT_INPUT


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
            ("ZDGRAPH_DOMINATION_K_CAP", ["verify", "--zn", "30", "--suites", "domination"]),
        ],
    )
    def test_unparsable_environment_integer_is_input_error(self, capsys, monkeypatch, variable, argv):
        monkeypatch.setenv(variable, "abc")
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert variable in err and "'abc'" in err
        assert out == ""
