"""Graph export to DOT and JSON, and the one JSON writer, with deterministic byte output.

Every output is a stream of str chunks that `write_atomic` writes as they
come, so none is held whole; `json_bytes` joins them.  Both graph writers
read the node and edge streams of `_graph_parts`.
"""

from __future__ import annotations

import errno
import json
import os
from collections.abc import Iterable, Iterator
from itertools import accumulate
from pathlib import Path

from .errors import TooManyElements
from .graphs import GraphView, vertex_label
from .rings import env_int, render_support, submasks

EXPORT_FORMAT = 1
DEFAULT_EXPLICIT_CAP = 4096
ENV_EXPLICIT_CAP = "ZDGRAPH_EXPLICIT_CAP"

# one edge of an export's "edges" array, four spaces deep
_EDGE = "    [\n      %d,\n      %d\n    ]"


def _json(value: object, indent: str) -> str:
    """`value` as `json_bytes` writes it `indent` deep: exact, as encoded strings hold no raw newline."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


def json_chunks(doc: dict, **arrays: Iterable[str]) -> Iterator[str]:
    """`json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)` plus a newline, in pieces.

    Each keyword names a top-level list, its items given as chunks already encoded four spaces deep.
    """
    text = _json({**doc, **dict.fromkeys(arrays, [])}, "")
    for key in sorted(arrays):
        # a top-level "key": [] sits on a line of its own, two spaces deep,
        # where no nested key or encoded string can match it
        head, empty, text = text.partition(f'\n  "{key}": []')
        yield head
        sep = f'\n  "{key}": [\n'
        for item in arrays[key]:
            yield sep + item
            sep = ",\n"
        yield "\n  ]" if sep == ",\n" else empty
    yield text + "\n"


def json_bytes(doc: dict) -> bytes:
    return "".join(json_chunks(doc)).encode("utf-8")


def _graph_parts(G: GraphView, compressed: bool) -> tuple[Iterator[dict], Iterator[tuple[int, int]]]:
    """The nodes and the id-pair edges of one graph form, as two streams.

    The compressed form has one node per support class; the explicit form one per vertex, at most
    ZDGRAPH_EXPLICIT_CAP.  A class's nodes take consecutive ids in mask order, so walking each class's
    ids and the larger submasks of its complement lists the edges by ascending first id, then second id.
    """
    if compressed:
        nodes = ({"id": m - 1, "mask": m, "support": render_support(m), "weight": G.weight(m)} for m in G.classes)
    else:
        limit = env_int(ENV_EXPLICIT_CAP, DEFAULT_EXPLICIT_CAP)
        n = G.vertex_count()
        if n > limit:
            raise TooManyElements(n, limit)
        nodes = (
            {"id": i, "mask": v.mask, "copy": v.copy, "support": render_support(v.mask), "label": vertex_label(G, v)}
            for i, v in enumerate(G.vertices())
        )
    # the ids of class m are first[m] .. first[m + 1] - 1
    first = [0, 0, *accumulate(1 if compressed else G.weight(m) for m in G.classes)]
    edges = (
        (i, j)
        for a in G.classes
        for i in range(first[a], first[a + 1])
        for s in submasks(G.full_mask & ~a)
        if s > a
        for j in range(first[s], first[s + 1])
    )
    return nodes, edges


def graph_json_chunks(G: GraphView, compressed: bool = True) -> Iterator[str]:
    """The JSON of a graph form, node by node and edge by edge."""
    nodes, edges = _graph_parts(G, compressed)
    doc = {"format": EXPORT_FORMAT, "graph": G.kind, "ring": G.ring.describe(), "compressed": compressed}
    return json_chunks(doc, edges=(_EDGE % e for e in edges), nodes=("    " + _json(v, "    ") for v in nodes))


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_chunks(G: GraphView, compressed: bool = True) -> Iterator[str]:
    """The DOT text of a graph form, one line at a time."""
    nodes, edges = _graph_parts(G, compressed)
    qs = "x".join(str(q) for q in G.ring.qs)
    yield f"graph {G.kind}_F{qs} {{\n  node [shape=circle];\n"
    for v in nodes:
        label = v["label"] if "label" in v else f"S={v['support']} (w={v['weight']})"
        yield f"  n{v['id']} [label={_quote(label)}];\n"
    for i, j in edges:
        yield f"  n{i} -- n{j};\n"
    yield "}\n"


def check_target(path: str | Path) -> Path:
    """The file `path` names, symlinks followed so a link stays a link; a bad target raises under `path`.

    A directory, an existing non-regular file (FIFO, socket, device, symlink loop), or a missing or
    non-directory parent is refused.  Commands call this before any work; `write_atomic` before its
    temp file, which would misname it.
    """
    given = Path(path)
    target = Path(os.path.realpath(given))
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(given))
    if os.path.lexists(target) and not target.is_file():
        raise OSError(f"Not a regular file: {str(given)!r}")
    if not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(given))
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
