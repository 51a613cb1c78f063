"""Graph export to DOT and JSON, with deterministic byte output."""

from __future__ import annotations

import errno
import json
import os
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
            {"id": m - 1, "mask": m, "support": render_support(m), "weight": w}
            for m, w in zip(G.classes, G.weights)
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


def json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(G: GraphView, compressed: bool = True) -> str:
    _, edges, labels = _graph_parts(G, compressed)
    lines = [f"graph {_graph_name(G)} {{", "  node [shape=circle];"]
    lines += [f"  n{i} [label={_quote(label)}];" for i, label in enumerate(labels)]
    lines += [f"  n{i} -- n{j};" for i, j in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    target = Path(path)
    if target.is_dir():
        # checked first: the sibling of a path such as "out/" lies outside it
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
