"""Child-process side of the zdgraph benchmark.

Every measurement runs in a fresh interpreter started by `run.py`, with the
program's `src/` on PYTHONPATH.  It has four modes, each writing a JSON
document to OUT:

  cli OUT CLI-ARGS...       run the CLI as `python -m zdgraph.cli` does; record peak RSS
  setup OUT RINGSPEC        import the CLI, build the ring(s) and both graphs
  suites OUT RINGSPEC SEED  time run_verification(suites=[s]) for each suite
  trace OUT CLI-ARGS...     run the CLI in-process with span-recording wrappers

RINGSPEC is one of `zn:N`, `fields:P1,P2,...`, `table:PATH` or
`batch:LIMIT` (every squarefree modulus below LIMIT, as `batch` verifies).

The trace mode installs wrappers at runtime around the public functions and
methods of each measured module, and around the two sampling helpers of
`verify`.  Nothing in the program is edited.  `explicit` is only used by
tests and `corpus` only lists moduli, so neither is wrapped; time spent in
them is attributed to the calling layer.
"""

from __future__ import annotations

import atexit
import importlib
import json
import runpy
import sys
import time

perf = time.perf_counter

LAYERS = ("cli", "rings", "tables", "graphs", "spectrum", "verify", "edge_cases", "exports")
PRIVATE_WRAPPED = {"verify": ("_sample_pairs", "_sample_classes")}
SPAN_CAP = 50_000  # spans kept individually, in all
SPANS_PER_NAME = 2_000  # so hot leaf functions cannot crowd the rest out


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _rings(spec: str):
    from zdgraph import PrimeFactors, SquarefreeModulus, build_ring, load_table_file
    from zdgraph.corpus import squarefree_moduli

    kind, _, value = spec.partition(":")
    if kind == "zn":
        return [build_ring(SquarefreeModulus(int(value)))]
    if kind == "fields":
        return [build_ring(PrimeFactors(tuple(int(p) for p in value.split(","))))]
    if kind == "table":
        return [build_ring(load_table_file(value))]
    if kind == "batch":
        return [build_ring(SquarefreeModulus(n)) for n in squarefree_moduli(int(value))]
    raise SystemExit(f"unknown ring spec {spec!r}")


# ---------------------------------------------------------------------------
# cli: the real CLI, plus its peak resident set
#
# ru_maxrss from wait4 also counts the parent's resident set at the moment of
# spawning, so it would measure the harness whenever that is the larger.
# VmHWM covers only this process image.


def _record_peak_rss(out: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    _write_json(out, {"peak_rss_kb": kb})


def cmd_cli(out: str, argv: list[str]) -> None:
    atexit.register(_record_peak_rss, out)
    sys.argv = ["zdgraph", *argv]
    runpy.run_module("zdgraph.cli", run_name="__main__", alter_sys=True)


# ---------------------------------------------------------------------------
# setup: everything a CLI run does before its first invariant


def cmd_setup(spec: str, out: str) -> None:
    importlib.import_module("zdgraph.cli")
    from zdgraph import build_ag, build_gamma

    graphs = 0
    for ring in _rings(spec):
        if ring.k >= 2:
            build_gamma(ring)
            build_ag(ring)
            graphs += 2
    _write_json(out, {"graphs": graphs})


# ---------------------------------------------------------------------------
# suites: per-suite wall time, with the records so the parent can check that
# the suites together reproduce the full run


def cmd_suites(spec: str, seed: int, out: str) -> None:
    from zdgraph import ALL_SUITES, load_registry, run_verification

    registry = load_registry()
    seconds = {s: 0.0 for s in ALL_SUITES}
    records = []
    for ring in _rings(spec):
        ring_records = []
        for suite in ALL_SUITES:
            t0 = perf()
            report = run_verification(ring, suites=[suite], seed=seed, per_signature_cap=6, registry=registry)
            seconds[suite] += perf() - t0
            ring_records.extend(report.to_dict()["records"])
        ring_records.sort(key=lambda r: (r["check_id"], r["witness"]))
        records.append({"factors": list(ring.qs), "modulus": ring.modulus, "records": ring_records})
    _write_json(out, {"suite_s": seconds, "rings": records})


# ---------------------------------------------------------------------------
# trace


class Tracer:
    """In-memory spans with online self time.

    Each wrapped call pushes a frame; on return its duration is added to the
    parent frame's child time, so self time = duration - time in children.
    Every call is aggregated; at most SPANS_PER_NAME spans of each name and
    SPAN_CAP in all are kept individually.
    """

    def __init__(self):
        self.stack: list[list] = []  # [span id, child seconds]
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.agg: dict[str, list] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, name: str, fn, hook=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])  # calls, inclusive s, self s
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                if stack:
                    stack[-1][1] += d
                agg[0] += 1
                agg[1] += d
                agg[2] += d - frame[1]
                if agg[0] <= SPANS_PER_NAME and len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, t0, t1))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced


def _hook_table(tr, args, kwargs, t):
    tr.count("tables.entries", 2 * t.size * t.size)


def _hook_ideal_elements(tr, args, kwargs, members):
    tr.count("rings.ideal_elements", len(members))


def _hook_girth(tr, args, kwargs, res):
    tr.count("graphs.girth_escalations", int(res.escalated))
    tr.peak("graphs.girth_bound_max", res.bound_used)


def _hook_domination(tr, args, kwargs, res):
    tr.count("graphs.domination_nodes", res.nodes)
    tr.peak("graphs.domination_root_lb", res.root_lower_bound)


def _hook_records(tr, args, kwargs, report):
    tr.count("verify.records", len(report.records))


def _hook_sample_pairs(tr, args, kwargs, pairs):
    G = args[0]
    same = args[4] if len(args) > 4 else kwargs.get("include_same_class", False)
    n = len(G.classes)
    enumerated = n * (n - 1) // 2 + (sum(1 for w in G.weights if w >= 2) if same else 0)
    tr.count("verify.pairs_enumerated", enumerated)
    tr.count("verify.pairs_kept", len(pairs))


def _hook_sample_classes(tr, args, kwargs, chosen):
    tr.count("verify.pairs_enumerated", len(args[0].classes))
    tr.count("verify.pairs_kept", len(chosen))


def _hook_report_bytes(tr, args, kwargs, data):
    tr.count("verify.report_bytes", len(data))


def _hook_lookup(tr, args, kwargs, entry):
    tr.count("edge_cases.hits", int(entry is not None))


def _hook_write(tr, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    tr.count("exports.bytes", len(data))


HOOKS = {
    "tables.load_table_file": _hook_table,
    "rings.elements_of_ideal": _hook_ideal_elements,
    "graphs.girth_through": _hook_girth,
    "graphs.domination": _hook_domination,
    "verify.run_verification": _hook_records,
    "verify._sample_pairs": _hook_sample_pairs,
    "verify._sample_classes": _hook_sample_classes,
    "verify.VerificationReport.to_json_bytes": _hook_report_bytes,
    "edge_cases.Registry.lookup": _hook_lookup,
    "exports.write_bytes_atomic": _hook_write,
}


def install(tracer: Tracer) -> dict:
    """Wrap each layer's public functions and methods where callers resolve them.

    Methods are replaced on their class.  Modules import each other's
    functions by name, so a wrapped function is rebound in every zdgraph
    module that holds the original, its own included.
    """
    import inspect

    modules = {layer: importlib.import_module(f"zdgraph.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in PRIVATE_WRAPPED.get(layer, ())
            if not public or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if meth.startswith("_") or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                        continue
                    name = f"{layer}.{attr}.{meth}"
                    setattr(obj, meth, tracer.wrap(name, fn, HOOKS.get(name)))
    for name, mod in list(sys.modules.items()):
        if not name.startswith("zdgraph") or mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    return modules


def _agg(tr: Tracer, name: str, which: int) -> float:
    entry = tr.agg.get(name)
    return entry[which] if entry else 0.0


def layer_metrics(tr: Tracer, import_s: float) -> dict:
    calls, incl, self_ = 0, 1, 2
    m: dict[str, float] = {"cli.import_s": import_s}
    for layer in LAYERS:
        key = "spectrum.s" if layer == "spectrum" else f"{layer}.self_s"
        m[key] = sum(v[self_] for n, v in tr.agg.items() if n.split(".", 1)[0] == layer)
    m["rings.build_s"] = _agg(tr, "rings.build_ring", self_)
    m["rings.mul_calls"] = _agg(tr, "rings.Ring.mul", calls)
    m["rings.element_calls"] = _agg(tr, "rings.Ring.element", calls)
    m["rings.arith_s"] = sum(
        _agg(tr, n, self_) for n in ("rings.Ring.mul", "rings.Ring.element", "rings.elements_of_ideal")
    )
    m["tables.load_s"] = _agg(tr, "tables.load_table_file", incl)
    m["tables.decompose_s"] = _agg(tr, "tables.decompose_table_ring", incl)
    m["graphs.adjacency_s"] = _agg(tr, "graphs.GraphView.adjacency", incl)
    m["graphs.bfs_runs"] = _agg(tr, "graphs.class_distances", calls)
    m["graphs.bfs_s"] = _agg(tr, "graphs.class_distances", self_)
    m["graphs.radius_s"] = _agg(tr, "graphs.radius", incl)
    m["graphs.girth_calls"] = _agg(tr, "graphs.girth_through", calls)
    m["graphs.girth_s"] = _agg(tr, "graphs.girth_through", incl)
    m["graphs.domination_s"] = _agg(tr, "graphs.domination", incl)
    m["spectrum.sz_closure_calls"] = _agg(tr, "spectrum.sz_closure", calls)
    m["verify.sample_s"] = _agg(tr, "verify._sample_pairs", incl) + _agg(tr, "verify._sample_classes", incl)
    m["verify.serialize_s"] = _agg(tr, "verify.VerificationReport.to_json_bytes", incl)
    m["edge_cases.lookups"] = _agg(tr, "edge_cases.Registry.lookup", calls)
    m["exports.write_s"] = _agg(tr, "exports.write_bytes_atomic", incl)
    m["exports.files"] = _agg(tr, "exports.write_bytes_atomic", calls)
    for name in (
        "tables.entries", "rings.ideal_elements", "graphs.girth_escalations", "graphs.girth_bound_max",
        "graphs.domination_nodes", "graphs.domination_root_lb", "verify.records",
        "verify.pairs_enumerated", "verify.pairs_kept", "verify.report_bytes", "edge_cases.hits",
        "exports.bytes",
    ):
        m[name] = tr.counters.get(name, 0)
    return m


def cmd_trace(out: str, argv: list[str]) -> int:
    t0 = perf()
    importlib.import_module("zdgraph.cli")
    import_s = perf() - t0
    tracer = Tracer()
    modules = install(tracer)
    main = tracer.wrap("cli.main", modules["cli"].main)
    code = main(argv)
    _write_json(
        out,
        {
            "exit_code": code,
            "layers": layer_metrics(tracer, import_s),
            "calls": {n: {"calls": v[0], "incl_s": v[1], "self_s": v[2]} for n, v in sorted(tracer.agg.items())},
            "spans_dropped": tracer.dropped,
            "spans": tracer.spans,
        },
    )
    return code


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "cli" and len(argv) >= 2:
        cmd_cli(argv[1], argv[2:])
        return 0
    if mode == "setup" and len(argv) == 3:
        cmd_setup(argv[2], argv[1])
        return 0
    if mode == "suites" and len(argv) == 4:
        cmd_suites(argv[2], int(argv[3]), argv[1])
        return 0
    if mode == "trace" and len(argv) >= 3:
        return cmd_trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
