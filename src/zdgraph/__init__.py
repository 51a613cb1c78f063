"""Zero-divisor and annihilating-ideal graphs of finite reduced commutative rings.

Rings are products of prime fields, given as a squarefree modulus, a list of
primes, or raw operation tables.  Graphs are stored compressed, one node per
support class, and every metric (distance, eccentricity, girth through a
pair, domination) is exact on the compressed form.  The verification layer
replays structural predictions against independent oracles and writes
reproducible reports.

Importing the package loads none of its engine modules: each exported name
loads its module on first use (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

from .version import __version__

# module -> the names it exports
_EXPORTS = {
    "edge_cases": ("Registry", "RegistryEntry", "load_registry"),
    "errors": (
        "DecompositionMismatch",
        "Disconnected",
        "EmptyGraph",
        "FactorNotField",
        "FactorNotPrimeField",
        "InputFormatError",
        "InternalInconsistency",
        "NoAnnihilatingIdeals",
        "NotAdditiveGroup",
        "NotCommutative",
        "NotReduced",
        "NotSquarefree",
        "NotUnital",
        "RingConstructionError",
        "TooManyElements",
        "TooManyFactors",
        "ZdgraphError",
    ),
    "graphs": (
        "AG",
        "GAMMA",
        "Infinite",
        "DominationResult",
        "GirthResult",
        "GraphView",
        "Vertex",
        "build_ag",
        "build_gamma",
        "class_eccentricity",
        "diameter",
        "degree",
        "distance",
        "domination",
        "eccentricity",
        "gamma_vertex",
        "girth_through",
        "is_pendant",
        "is_triangle_vertex",
        "is_triangulated",
        "orthogonal",
        "radius",
        "vertex_element",
        "vertex_label",
    ),
    "rings": (
        "Element",
        "Ideal",
        "PrimeFactors",
        "Ring",
        "SquarefreeModulus",
        "TableRing",
        "annihilating_ideals",
        "annihilator_element",
        "build_ring",
        "enumerate_ideals",
        "factor_squarefree",
        "ideal_product",
    ),
    "spectrum": (
        "BourbakiSet",
        "MinPrime",
        "PlaceStatus",
        "RetractReport",
        "bourbaki_primes",
        "cozero_set",
        "fixed_place_status",
        "interior",
        "kernel",
        "maximal_annihilating",
        "min_primes",
        "prime_annihilating",
        "retract_check",
        "sz_closure",
        "zero_set",
    ),
    "tables": ("load_table_file", "product_tables", "table_from_json", "table_to_json", "zn_tables"),
    "verify": ("ALL_SUITES", "CheckRecord", "VerificationReport", "Verdict", "run_verification"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
