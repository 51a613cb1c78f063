"""Outputs stream into their file: the same bytes, and no whole copy held.

Reports, exports and `inspect`/`dominate` JSON are written chunk by chunk
through `exports.write_atomic` (or to stdout).  These tests pin the bytes
against the joined forms (`to_json_bytes`, stdout against `--output`), the
writer's atomicity when a stream fails midway, and the peak memory of
writing, which a writer or renderer that joins its chunks first multiplies.

The memory guards hand the CLI a report or graph document built before
tracing starts, and trace the command's second run, after the first has
imported what it needs, so the traced peak is what writing it takes.
"""

import tracemalloc

import pytest

from zdgraph import PrimeFactors, SquarefreeModulus, build_ag, build_ring, run_verification
from zdgraph import cli, verify
from zdgraph.cli import EXIT_OK, main
from zdgraph.exports import graph_to_json, write_atomic

K10 = "2,3,5,7,11,13,17,19,23,29"


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


def test_json_export_is_written_below_half_its_size(tmp_path, capsys, monkeypatch):
    # `json.dumps` with an indent lists every chunk before joining them
    doc = graph_to_json(build_ag(build_ring(PrimeFactors(tuple(map(int, K10.split(",")))))))
    monkeypatch.setattr(cli, "graph_to_json", lambda G, compressed: doc)
    out = tmp_path / "ag.json"
    argv = ["export", "--fields", K10, "--graph", "ag", "--format", "json", "--output", str(out)]
    peak = _peak_of_second_run(argv)
    assert capsys.readouterr().out == ""
    assert peak < 0.5 * out.stat().st_size
