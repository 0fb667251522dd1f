"""Exception types shared across the toolkit."""


class BicoverError(Exception):
    """Base class for all toolkit errors."""


class SizeLimitExceeded(BicoverError):
    """A routine was asked to go beyond one of its configured limits or caps."""


class RangeError(BicoverError):
    """A vertex label lies outside the ground set 1..n."""


class ParseError(BicoverError):
    """Malformed serialized input.

    Carries ``line`` and ``column`` when the underlying JSON decoder
    reports a position, None for semantic (well-formed JSON, wrong shape)
    failures.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class OverlapError(BicoverError):
    """The two sides of a bipartite block intersect."""


class FieldError(BicoverError):
    """No usable primitive polynomial for the requested field extension."""


class NoConstruction(BicoverError):
    """No implemented construction reaches the requested parameters."""


class NotEnoughCodewords(BicoverError):
    """The code has fewer codewords than the requested ground-set size."""


class GroundSetMismatch(BicoverError):
    """Two coverings (or a covering and a graph) disagree on the vertex count."""


class ImproperColoring(BicoverError):
    """Two adjacent vertices share a color."""


class DomainError(BicoverError):
    """Arguments violate a formula's or construction's precondition."""


class BudgetExhausted(BicoverError):
    """Exhaustive search ran out of budget before settling the instance.

    ``lower`` is the proven lower bound at interruption time and ``nodes``
    the number of search nodes visited.
    """

    def __init__(self, message, lower=None, nodes=None):
        super().__init__(message)
        self.lower = lower
        self.nodes = nodes


class InvalidCovering(BicoverError):
    """A diagnostic was invoked on a covering that fails verification."""
