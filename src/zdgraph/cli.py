"""Command line interface.

Exit codes: 0 success, 2 unregistered verification violations, 3 bad input
(arguments, ring construction, malformed files), 4 resource caps exceeded,
5 an engine's check of its own result failed.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

# Only what every command needs is imported here; each command imports the
# engine modules it runs, so `inspect` never compiles `verify` or `tables`.
from .errors import (
    InputFormatError,
    InternalInconsistency,
    TooManyElements,
    TooManyFactors,
    ZdgraphError,
)
from .exports import check_target, dot_chunks, graph_json_chunks, json_chunks, write_atomic
from .rings import (
    DEFAULT_MAX_FACTORS,
    PrimeFactors,
    Ring,
    RingSpec,
    SquarefreeModulus,
    build_ring,
    env_int,
)
from .version import __version__

ENV_MAX_FACTORS = "ZDGRAPH_MAX_FACTORS"

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2, which we reserve
        raise InputFormatError(message)


def _add_ring_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--zn", type=int, metavar="N", help="the ring of integers modulo a squarefree N")
    g.add_argument("--fields", metavar="P1,P2,...", help="product of prime fields of these sizes")
    g.add_argument("--table", metavar="FILE", help="JSON file with addition and multiplication tables")


def _build_ring(spec: RingSpec) -> Ring:
    """Build a ring under the factor cap that ZDGRAPH_MAX_FACTORS sets."""
    return build_ring(spec, env_int(ENV_MAX_FACTORS, DEFAULT_MAX_FACTORS))


def _ring_from_args(args: argparse.Namespace) -> Ring:
    if args.zn is not None:
        return _build_ring(SquarefreeModulus(args.zn))
    if args.fields is not None:
        try:
            primes = tuple(int(part) for part in args.fields.split(",") if part.strip())
        except ValueError:
            raise InputFormatError(f"--fields expects comma-separated integers, got {args.fields!r}")
        if not primes:
            raise InputFormatError("--fields needs at least one prime")
        return _build_ring(PrimeFactors(primes))
    from .tables import load_table_file

    return _build_ring(load_table_file(args.table))


def _ring_title(ring: Ring) -> str:
    name = " x ".join(f"F{q}" for q in ring.qs)
    if ring.modulus is not None:
        return f"{name} (Z/{ring.modulus})"
    return name


def _emit(chunks: Iterable[str], path: str | None = None) -> None:
    """Write command output chunk by chunk, atomically to `path`, or to stdout without one."""
    if path:
        write_atomic(path, chunks)
    else:
        sys.stdout.writelines(chunks)


def _parse_suites(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not names:
        raise InputFormatError("--suites given but empty")
    return names


def build_parser() -> _Parser:
    parser = _Parser(prog="zdgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"zdgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a ring and its graphs")
    _add_ring_args(p)
    p.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    p = sub.add_parser("export", help="write a graph as DOT or JSON")
    _add_ring_args(p)
    p.add_argument("--graph", choices=("gamma", "ag"), required=True)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--explicit", action="store_true", help="one node per vertex instead of per class")
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")

    p = sub.add_parser("verify", help="run prediction-versus-oracle checks")
    _add_ring_args(p)
    p.add_argument("--suites", metavar="NAMES", help="comma-separated suite names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-cap", type=int, default=6, help="sampled pairs per signature")
    p.add_argument("--report", metavar="PATH", help="write the JSON report here")
    p.add_argument("--registry", metavar="PATH", help="alternate edge-case registry")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("dominate", help="exact minimum (total) dominating set")
    _add_ring_args(p)
    p.add_argument("--graph", choices=("gamma", "ag"), required=True)
    p.add_argument("--total", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("batch", help="verify a family of rings and write reports")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--squarefree-below", type=int, metavar="N")
    g.add_argument("--moduli", metavar="N1,N2,...")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.add_argument("--suites", metavar="NAMES")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-cap", type=int, default=6)

    return parser


# ---------------------------------------------------------------------------
# commands


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .graphs import build_ag, build_gamma, radius
    from .spectrum import fixed_place_status, maximal_annihilating, min_primes

    ring = _ring_from_args(args)
    doc: dict = {
        "ring": ring.describe(),
        "size": ring.size,
        "modulus": ring.modulus,
        "min_primes": [p.render(ring) for p in min_primes(ring)],
    }
    status, kern = fixed_place_status(ring)
    doc["fixed_place"] = status.value
    doc["bourbaki_kernel"] = kern.render(ring)
    if ring.k >= 2:
        doc["maximal_annihilating"] = [i.render(ring) for i in maximal_annihilating(ring)]
        for kind, build in (("gamma", build_gamma), ("ag", build_ag)):
            G = build(ring)
            doc[kind] = {
                "vertices": G.vertex_count(),
                "edges": G.edge_count(),
                "classes": len(G.classes),
                "radius": radius(G),
            }
    else:
        doc.update(maximal_annihilating=[], gamma=None, ag=None)

    if args.json:
        _emit(json_chunks(doc))
        return EXIT_OK

    print(f"ring {_ring_title(ring)} with {ring.size} elements")
    print(f"  minimal primes: {', '.join(doc['min_primes'])}")
    print(f"  fixed place status: {doc['fixed_place']} (kernel {doc['bourbaki_kernel']})")
    if doc["maximal_annihilating"]:
        print(f"  maximal annihilating ideals: {', '.join(doc['maximal_annihilating'])}")
    else:
        print("  maximal annihilating ideals: none (field)")
    for kind in ("gamma", "ag"):
        info = doc[kind]
        name = "zero-divisor graph" if kind == "gamma" else "annihilating-ideal graph"
        if info is None:
            print(f"  {name}: empty")
        else:
            print(
                f"  {name}: {info['vertices']} vertices, {info['edges']} edges, "
                f"{info['classes']} classes, radius {info['radius']}"
            )
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    from .graphs import build_ag, build_gamma

    if args.output:
        check_target(args.output)
    ring = _ring_from_args(args)
    G = build_gamma(ring) if args.graph == "gamma" else build_ag(ring)
    if args.format == "dot":
        chunks = dot_chunks(G, compressed=not args.explicit)
    else:
        chunks = graph_json_chunks(G, compressed=not args.explicit)
    _emit(chunks, args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .edge_cases import load_registry
    from .verify import run_verification, select_suites

    # bad arguments fail before the ring, which for a table may take a while to load
    suites = select_suites(_parse_suites(args.suites), args.pair_cap)
    registry = load_registry(args.registry) if args.registry else None
    if args.report:
        check_target(args.report)
    ring = _ring_from_args(args)
    report = run_verification(
        ring,
        suites=suites,
        seed=args.seed,
        per_signature_cap=args.pair_cap,
        registry=registry,
    )
    if args.report:
        write_atomic(args.report, report.json_chunks())
    if not args.quiet:
        for line in report.summary_lines():
            print(line)
    return EXIT_VIOLATIONS if report.has_unregistered_violations else EXIT_OK


def _cmd_dominate(args: argparse.Namespace) -> int:
    from .graphs import build_ag, build_gamma, domination, vertex_label

    ring = _ring_from_args(args)
    G = build_gamma(ring) if args.graph == "gamma" else build_ag(ring)
    result = domination(G, total=args.total)
    labels = [vertex_label(G, v) for v in result.witness]
    if args.json:
        doc = {
            "ring": ring.describe(),
            "graph": args.graph,
            "total": args.total,
            "size": result.size,
            "certified": result.certified,
            "witness": labels,
            "nodes_explored": result.nodes,
        }
        _emit(json_chunks(doc))
        return EXIT_OK
    flavor = "total dominating" if args.total else "dominating"
    certified = "certified" if result.certified else "NOT certified (budget hit)"
    print(f"{args.graph} of {_ring_title(ring)}: minimum {flavor} set has size {result.size} ({certified})")
    print(f"  witness: {', '.join(labels)}")
    return EXIT_OK


def _cmd_batch(args: argparse.Namespace) -> int:
    from .corpus import squarefree_moduli
    from .edge_cases import load_registry
    from .verify import run_verification, select_suites

    suites = select_suites(_parse_suites(args.suites), args.pair_cap)
    if args.squarefree_below is not None:
        moduli = squarefree_moduli(args.squarefree_below)
    else:
        try:
            moduli = [int(part) for part in args.moduli.split(",") if part.strip()]
        except ValueError:
            raise InputFormatError(f"--moduli expects comma-separated integers, got {args.moduli!r}")
        repeated = sorted(n for n, times in Counter(moduli).items() if times > 1)
        if repeated:
            # each modulus has one report file, so a repeat would overwrite it and count twice
            raise InputFormatError(f"--moduli repeats {', '.join(map(str, repeated))}")
    if not moduli:
        given = "--moduli" if args.squarefree_below is None else f"--squarefree-below {args.squarefree_below}"
        raise InputFormatError(f"{given} leaves no modulus to verify")
    registry = load_registry()
    # a bad modulus fails here, before any report is written
    rings = [(n, _build_ring(SquarefreeModulus(n))) for n in moduli]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    any_unregistered = False
    totals = {"confirmed": 0, "violated": 0, "violated_registered": 0, "not_applicable": 0}
    for n, ring in rings:
        report = run_verification(
            ring, suites=suites, seed=args.seed, per_signature_cap=args.pair_cap, registry=registry
        )
        write_atomic(out_dir / f"zn{n:04d}.json", report.json_chunks())
        c = report.counts()
        for key in totals:
            totals[key] += c[key]
        flag = ""
        if report.has_unregistered_violations:
            any_unregistered = True
            flag = "  <-- UNREGISTERED VIOLATIONS"
        print(
            f"zn={n:<4d} k={ring.k}  confirmed={c['confirmed']:<4d} "
            f"registered={c['violated_registered']:<3d} unregistered={c['violated']:<3d} "
            f"na={c['not_applicable']:<3d}{flag}"
        )
    print(
        "totals: confirmed={confirmed} registered={violated_registered} "
        "unregistered={violated} na={not_applicable}".format(**totals)
    )
    return EXIT_VIOLATIONS if any_unregistered else EXIT_OK


_COMMANDS = {
    "inspect": _cmd_inspect,
    "export": _cmd_export,
    "verify": _cmd_verify,
    "dominate": _cmd_dominate,
    "batch": _cmd_batch,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (TooManyFactors, TooManyElements) as exc:
        print(f"zdgraph: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InternalInconsistency as exc:
        print(f"zdgraph: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ZdgraphError as exc:
        print(f"zdgraph: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"zdgraph: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
