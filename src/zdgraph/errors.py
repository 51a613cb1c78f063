"""Exception types shared across the package."""

from __future__ import annotations


class ZdgraphError(Exception):
    """Base class for all package errors."""


class RingConstructionError(ZdgraphError):
    """A ring specification could not be turned into a valid ring."""


class NotSquarefree(RingConstructionError):
    def __init__(self, n: int, repeated_prime: int):
        self.n = n
        self.repeated_prime = repeated_prime
        super().__init__(f"{n} is divisible by {repeated_prime}^2, so Z_{n} is not reduced")


class NotReduced(RingConstructionError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"table ring has a nonzero nilpotent, witness index {witness}")


class NotCommutative(RingConstructionError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"multiplication table is not commutative, witness pair {witness}")


class NotUnital(RingConstructionError):
    """The identity index of a table ring is not a multiplicative identity."""


class NotAdditiveGroup(RingConstructionError):
    """The addition table of a table ring is not a commutative group."""


class FactorNotField(RingConstructionError):
    """A factor carved out by a primitive idempotent failed the field checks."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"idempotent factor is not a field, witness {witness}")


class FactorNotPrimeField(RingConstructionError):
    """A factor is a field of non-prime order, which is outside the supported family."""

    def __init__(self, order: int):
        self.order = order
        super().__init__(
            f"idempotent factor is a field of order {order}, which is not prime; "
            "only products of prime fields are supported"
        )


class DecompositionMismatch(RingConstructionError):
    """Round-trip check of the coordinate isomorphism failed (internal inconsistency)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coordinatewise operations disagree with tables at {witness}")


class TooManyFactors(ZdgraphError):
    def __init__(self, k: int, cap: int):
        self.k = k
        self.cap = cap
        super().__init__(f"ring has {k} prime factors, above the configured cap {cap}")


class TooManyElements(ZdgraphError):
    def __init__(self, size: int, cap: int):
        self.size = size
        self.cap = cap
        super().__init__(f"explicit enumeration of {size} elements is above the cap {cap}")


class EmptyGraph(ZdgraphError):
    """Requested graph has no vertices (the ring is a field)."""


class NoAnnihilatingIdeals(ZdgraphError):
    """The ring has no nonzero ideal with nonzero annihilator."""


class Disconnected(ZdgraphError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"graph is disconnected, witness {witness}")


class InputFormatError(ZdgraphError):
    """A table file or CLI ring specification is malformed."""


class InternalInconsistency(ZdgraphError):
    """An engine's own check of its result failed: a bug, not bad input."""
