"""Zero-divisor and annihilating-ideal graphs of finite reduced commutative rings.

Rings are products of prime fields, given as a squarefree modulus, a list of
primes, or raw operation tables.  Graphs are stored compressed, one node per
support class, and every metric (distance, eccentricity, girth through a
pair, domination) is exact on the compressed form.  The verification layer
replays structural predictions against independent oracles and writes
reproducible reports.
"""

from .edge_cases import Registry, RegistryEntry, load_registry
from .errors import (
    DecompositionMismatch,
    Disconnected,
    EmptyGraph,
    FactorNotField,
    FactorNotPrimeField,
    InputFormatError,
    InternalInconsistency,
    NoAnnihilatingIdeals,
    NotAdditiveGroup,
    NotCommutative,
    NotReduced,
    NotSquarefree,
    NotUnital,
    RingConstructionError,
    TooManyElements,
    TooManyFactors,
    ZdgraphError,
)
from .graphs import (
    AG,
    GAMMA,
    Infinite,
    DominationResult,
    GirthResult,
    GraphView,
    Vertex,
    build_ag,
    build_gamma,
    class_eccentricity,
    diameter,
    degree,
    distance,
    domination,
    eccentricity,
    gamma_vertex,
    girth_through,
    is_pendant,
    is_triangle_vertex,
    is_triangulated,
    orthogonal,
    radius,
    vertex_element,
    vertex_label,
)
from .rings import (
    Element,
    Ideal,
    PrimeFactors,
    Ring,
    SquarefreeModulus,
    TableRing,
    annihilating_ideals,
    annihilator_element,
    build_ring,
    enumerate_ideals,
    factor_squarefree,
    ideal_contains,
    ideal_product,
)
from .spectrum import (
    BourbakiSet,
    MinPrime,
    PlaceStatus,
    RetractReport,
    TopSet,
    bourbaki_primes,
    cozero_set,
    fixed_place_status,
    interior,
    kernel,
    maximal_annihilating,
    min_primes,
    prime_annihilating,
    retract_check,
    sz_closure,
    zero_set,
)
from .tables import load_table_file, product_tables, table_from_json, table_to_json, zn_tables
from .verify import (
    ALL_SUITES,
    CheckRecord,
    VerificationReport,
    Verdict,
    run_verification,
)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
