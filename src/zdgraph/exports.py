"""Graph export to DOT and JSON, with deterministic byte output.

Outputs are streams of str chunks that `write_atomic` writes as they come, so
none is held whole; `json_bytes` and `graph_to_dot` join the same chunks.
"""

from __future__ import annotations

import errno
import json
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import TooManyElements
from .graphs import GraphView, vertex_label
from .rings import env_int, render_support, submasks

EXPORT_FORMAT = 1
DEFAULT_EXPLICIT_CAP = 4096
ENV_EXPLICIT_CAP = "ZDGRAPH_EXPLICIT_CAP"


def _graph_name(G: GraphView) -> str:
    qs = "x".join(str(q) for q in G.ring.qs)
    return f"{G.kind}_F{qs}"


def _graph_parts(G: GraphView, compressed: bool) -> tuple[list[dict], list[list[int]], list[str]]:
    """The JSON nodes, the id-pair edges and the DOT labels of one graph form.

    The compressed form has one node per support class; the explicit form
    one per vertex, at most ZDGRAPH_EXPLICIT_CAP of them.  Edges join
    disjoint masks and are listed by ascending first id, then second id.
    """
    if compressed:
        nodes = [
            {"id": m - 1, "mask": m, "support": render_support(m), "weight": G.weight(m)}
            for m in G.classes
        ]
        edges = [[m - 1, s - 1] for m in G.classes for s in submasks(G.full_mask & ~m) if m < s]
        return nodes, edges, [f"S={node['support']} (w={node['weight']})" for node in nodes]
    limit = env_int(ENV_EXPLICIT_CAP, DEFAULT_EXPLICIT_CAP)
    n = G.vertex_count()
    if n > limit:
        raise TooManyElements(n, limit)
    vertices = list(G.vertices())
    labels = [vertex_label(G, v) for v in vertices]
    nodes = [
        {"id": i, "mask": v.mask, "copy": v.copy, "support": render_support(v.mask), "label": label}
        for i, (v, label) in enumerate(zip(vertices, labels))
    ]
    masks = [v.mask for v in vertices]
    edges = [[i, j] for i, a in enumerate(masks) for j in range(i + 1, n) if not a & masks[j]]
    return nodes, edges, labels


def graph_to_json(G: GraphView, compressed: bool = True) -> dict:
    nodes, edges, _ = _graph_parts(G, compressed)
    return {
        "format": EXPORT_FORMAT,
        "graph": G.kind,
        "ring": G.ring.describe(),
        "compressed": compressed,
        "nodes": nodes,
        "edges": edges,
    }


def json_chunks(doc: dict) -> Iterator[str]:
    """`doc` as `json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` plus a newline, in pieces."""
    yield from json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False).iterencode(doc)
    yield "\n"


def json_bytes(doc: dict) -> bytes:
    return "".join(json_chunks(doc)).encode("utf-8")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_chunks(G: GraphView, compressed: bool = True) -> Iterator[str]:
    """The DOT text of a graph form, one line at a time."""
    _, edges, labels = _graph_parts(G, compressed)
    yield f"graph {_graph_name(G)} {{\n  node [shape=circle];\n"
    for i, label in enumerate(labels):
        yield f"  n{i} [label={_quote(label)}];\n"
    for i, j in edges:
        yield f"  n{i} -- n{j};\n"
    yield "}\n"


def graph_to_dot(G: GraphView, compressed: bool = True) -> str:
    return "".join(dot_chunks(G, compressed))


def check_target(path: str | Path) -> Path:
    """`path` as a file to write; a directory, or a missing or non-directory parent, raises under its name.

    Commands call this before any work; `write_atomic` before its temp file, which would misname it.
    """
    target = Path(path)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    if not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(target))
    return target


def write_atomic(path: str | Path, chunks: Iterable[str]) -> None:
    """Write str chunks as UTF-8 via a sibling temp file and rename; a failed stream leaves the target as it was."""
    target = check_target(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
