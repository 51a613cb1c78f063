"""Outputs stream into their file: the same bytes, and no whole copy held.

Reports, exports and `inspect`/`dominate` JSON are written chunk by chunk
through `exports.write_atomic` (or to stdout).  These tests pin the bytes
against the joined forms (`to_json_bytes`, stdout against `--output`), the
writer's atomicity when a stream fails midway, and the peak memory of
writing, which a writer or renderer that joins its chunks first multiplies.

The memory guards trace the command's second run, after the first has
imported what it needs.  The report guard hands the CLI a report built
before tracing starts, so the traced peak is what writing it takes; the
export guards trace the whole command, whose graph is only its classes.

The graph writers share one JSON writer and one edge walk; their tests
hold the joined chunks to the standard library's encoding and the edges
to one order.
"""

import json
import tracemalloc

import pytest

from zdgraph import PrimeFactors, SquarefreeModulus, build_ag, build_gamma, build_ring, run_verification
from zdgraph import verify
from zdgraph.cli import EXIT_OK, main
from zdgraph.exports import dot_chunks, graph_json_chunks, json_chunks, write_atomic

K10 = "2,3,5,7,11,13,17,19,23,29"
K11 = K10 + ",31"


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def _peak_of_second_run(argv):
    """The tracemalloc peak of the command's second successful run."""
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _broken_stream():
    yield "{\n"
    yield '  "half": '
    raise RuntimeError("renderer failed")


def test_failed_stream_creates_no_target(tmp_path):
    target = tmp_path / "out.json"
    with pytest.raises(RuntimeError, match="renderer failed"):
        write_atomic(target, _broken_stream())
    assert list(tmp_path.iterdir()) == []


def test_failed_stream_keeps_the_old_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="renderer failed"):
        write_atomic(target, _broken_stream())
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize(
    "ring, seed",
    [*((("--zn", "510510"), seed) for seed in (0, 1, 2)), (("--fields", "3,2,5,2,7"), 1)],
    ids=["k7-0", "k7-1", "k7-2", "f2-1"],
)
def test_report_file_is_to_json_bytes(ring, seed, tmp_path, capsys, monkeypatch):
    made = []

    def run_and_keep(*args, **kwargs):
        made.append(run_verification(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(verify, "run_verification", run_and_keep)
    out = tmp_path / "report.json"
    assert main(["verify", *ring, "--seed", str(seed), "--report", str(out), "--quiet"]) == EXIT_OK
    capsys.readouterr()
    assert len(made) == 1
    assert out.read_bytes() == made[0].to_json_bytes()


@pytest.mark.parametrize("fmt", ["json", "dot"])
@pytest.mark.parametrize(
    "graph",
    [("--zn", "210", "--graph", "gamma", "--explicit"), ("--fields", K10, "--graph", "ag")],
    ids=["z210-explicit", "k10"],
)
def test_export_to_stdout_equals_output_file(graph, fmt, tmp_path, capsys):
    argv = ["export", *graph, "--format", fmt]
    out = tmp_path / f"graph.{fmt}"
    assert main([*argv, "--output", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_report_is_written_below_half_its_size(tmp_path, monkeypatch):
    # joined, replaced, newline-appended and encoded, the seed-0 report was
    # held about four times over while it was written
    report = run_verification(build_ring(SquarefreeModulus(510510)), seed=0)
    monkeypatch.setattr(verify, "run_verification", lambda ring, **kwargs: report)
    out = tmp_path / "report.json"
    peak = _peak_of_second_run(["verify", "--zn", "510510", "--report", str(out), "--quiet"])
    assert out.read_bytes() == report.to_json_bytes()
    assert peak < 0.5 * out.stat().st_size


def test_json_export_is_written_below_half_its_size(tmp_path, capsys):
    # `json.dumps` with an indent lists every chunk before joining them
    out = tmp_path / "ag.json"
    argv = ["export", "--fields", K10, "--graph", "ag", "--format", "json", "--output", str(out)]
    peak = _peak_of_second_run(argv)
    assert capsys.readouterr().out == ""
    assert peak < 0.5 * out.stat().st_size


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_k11_export_holds_no_node_or_edge_list(fmt, tmp_path, capsys):
    # the 2046 node dicts and 86,526 edge lists built before the first chunk
    # peaked at about 11.5 MB; streamed, the peak is about 0.17 MB
    out = tmp_path / f"ag.{fmt}"
    peak = _peak_of_second_run(["export", "--fields", K11, "--graph", "ag", "--format", fmt, "--output", str(out)])
    assert capsys.readouterr().out == ""
    assert peak < 1_000_000


@pytest.mark.parametrize("compressed", [True, False], ids=["compressed", "explicit"])
@pytest.mark.parametrize("build", [build_gamma, build_ag], ids=["gamma", "ag"])
@pytest.mark.parametrize(
    "spec",
    [PrimeFactors((2, 2)), PrimeFactors((3, 5)), PrimeFactors((3, 2, 5, 2)), PrimeFactors((2, 3, 5, 7)),
     SquarefreeModulus(210)],
    ids=["f2x2", "f3x5", "f3x2x5x2", "f2x3x5x7", "z210"],
)
def test_graph_writers_share_one_layout_and_one_edge_order(spec, build, compressed):
    G = build(build_ring(spec))
    text = "".join(graph_json_chunks(G, compressed))
    doc = json.loads(text)
    assert text == _dumps(doc) + "\n"
    edges = [tuple(e) for e in doc["edges"]]
    assert all(i < j for i, j in edges)
    assert all(e < f for e, f in zip(edges, edges[1:]))
    k = G.ring.k
    assert len(edges) == ((3**k - 2 ** (k + 1) + 1) // 2 if compressed else G.edge_count())
    dot = "".join(dot_chunks(G, compressed)).splitlines()
    assert [line for line in dot if " -- " in line] == [f"  n{i} -- n{j};" for i, j in edges]


def _items(values):
    return ("    " + _dumps(v).replace("\n", "\n    ") for v in values)


def test_json_chunks_writes_an_empty_array_as_json_does():
    doc = {"b": [], "a": {"records": [], "s": "\"records\": []"}, "z": 3}
    assert "".join(json_chunks(doc, b=_items([]))) == _dumps(doc) + "\n"
    assert "".join(json_chunks({"x": None}, records=iter(()))) == _dumps({"records": [], "x": None}) + "\n"


def test_json_chunks_writes_two_arrays_as_json_does():
    # passed out of key order, as `json.dumps` sorts the keys
    zs = [{"k": [1, 2], "é": None}, "s", []]
    bs = [[3], 4.5]
    doc = {"a": 1, "m": {"z": []}, "b": bs, "z": zs}
    assert "".join(json_chunks({"a": 1, "m": {"z": []}}, z=_items(zs), b=_items(bs))) == _dumps(doc) + "\n"
