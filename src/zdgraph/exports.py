"""Graph export to DOT and JSON, with deterministic byte output."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .explicit import ExplicitGraph, materialize
from .graphs import GraphView, vertex_label
from .rings import render_support

EXPORT_FORMAT = 1


def _graph_name(G: GraphView) -> str:
    qs = "x".join(str(q) for q in G.ring.qs)
    return f"{G.kind}_F{qs}"


def compressed_nodes(G: GraphView) -> list[dict]:
    return [
        {
            "id": i,
            "mask": m,
            "support": render_support(m),
            "weight": G.weights[i],
        }
        for i, m in enumerate(G.classes)
    ]


def compressed_edges(G: GraphView) -> list[list[int]]:
    return [[i, j] for i, row in enumerate(G.adjacency()) for j in row if i < j]


def explicit_nodes(G: GraphView, eg: ExplicitGraph) -> list[dict]:
    return [
        {
            "id": i,
            "mask": v.mask,
            "copy": v.copy,
            "support": render_support(v.mask),
            "label": vertex_label(G, v),
        }
        for i, v in enumerate(eg.labels)
    ]


def explicit_edges(eg: ExplicitGraph) -> list[list[int]]:
    out = []
    for i in range(eg.n):
        for j in sorted(eg.adj[i]):
            if i < j:
                out.append([i, j])
    return out


def graph_to_json(G: GraphView, compressed: bool = True, cap: int | None = None) -> dict:
    doc = {
        "format": EXPORT_FORMAT,
        "graph": G.kind,
        "ring": G.ring.describe(),
        "compressed": compressed,
    }
    if compressed:
        doc["nodes"] = compressed_nodes(G)
        doc["edges"] = compressed_edges(G)
    else:
        eg = materialize(G, cap)
        doc["nodes"] = explicit_nodes(G, eg)
        doc["edges"] = explicit_edges(eg)
    return doc


def json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(G: GraphView, compressed: bool = True, cap: int | None = None) -> str:
    lines = [f"graph {_graph_name(G)} {{"]
    lines.append("  node [shape=circle];")
    if compressed:
        for node in compressed_nodes(G):
            label = f"S={node['support']} (w={node['weight']})"
            lines.append(f"  n{node['id']} [label={_quote(label)}];")
        for i, j in compressed_edges(G):
            lines.append(f"  n{i} -- n{j};")
    else:
        eg = materialize(G, cap)
        for i, v in enumerate(eg.labels):
            lines.append(f"  n{i} [label={_quote(vertex_label(G, v))}];")
        for i, j in explicit_edges(eg):
            lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))
