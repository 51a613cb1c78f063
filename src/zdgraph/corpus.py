"""Standard rings used by batch runs and the regression suite."""

from __future__ import annotations

from .errors import NotSquarefree, RingConstructionError
from .rings import FACTOR_BOUND, PrimeFactors, Ring, SquarefreeModulus, build_ring, factor_squarefree

# squarefree moduli covering 2 to 4 factors, with and without a factor of 2,
# plus pure products that no modulus can reach (repeated field sizes)
CANONICAL_MODULI = (6, 10, 15, 30, 42, 66, 70, 105, 210, 231, 462)
CANONICAL_PRODUCTS = (
    (2, 2),
    (3, 3),
    (3, 5),
    (5, 7),
    (2, 2, 2),
    (3, 3, 3),
    (2, 3, 7),
    (2, 2, 2, 2),
    (2, 2, 3, 3),
)


def canonical_corpus() -> list[Ring]:
    rings = [build_ring(SquarefreeModulus(n)) for n in CANONICAL_MODULI]
    rings.extend(build_ring(PrimeFactors(qs)) for qs in CANONICAL_PRODUCTS)
    return rings


def squarefree_moduli(limit: int) -> list[int]:
    """All squarefree n with 2 <= n < limit, primes included; a limit past the bound fails at once."""
    if limit > FACTOR_BOUND + 1:
        raise RingConstructionError(f"moduli below {limit} go above the 10^9 factorization bound")
    found = []
    for n in range(2, limit):
        try:
            factor_squarefree(n)
        except NotSquarefree:
            continue
        found.append(n)
    return found
