"""Exception taxonomy shared across the package, and the quoting of user
input in error messages."""

# an error message names a longer argument by a prefix and its length
MAX_ECHO = 80


def quoted(value, exc=None) -> str:
    """repr(value), then ": exc" when a parse error is given; a string
    over MAX_ECHO characters, or another value with a longer repr, is named
    by a prefix and its length, without the error, which repeats it."""
    if isinstance(value, str) and len(value) > MAX_ECHO:
        return f"{value[:MAX_ECHO]!r}... ({len(value)} characters)"
    text = repr(value)
    if len(text) > MAX_ECHO:
        return f"{text[:MAX_ECHO]}... (repr of {len(text)} characters)"
    return text if exc is None else f"{text}: {exc}"


class DomainError(ValueError):
    """Input lies outside an operation's mathematical domain."""


class EmptyRegionError(DomainError):
    """The half-spaces have empty intersection."""


class UnboundedRegionError(DomainError):
    """The feasible region has a nontrivial recession cone."""


class DegenerateInputError(DomainError):
    """Constraint data too degenerate to define the requested object."""


class NotDelzantError(DomainError):
    """Polytope is not simple/rational/smooth, so the toric dictionary fails."""


class NotPolarizingError(DomainError):
    """Direction pairs to zero with some edge vector."""


class NotGenericError(DomainError):
    """Evaluation direction annihilates a weight or edge."""


class NonSimpleVertexError(DomainError):
    """Vertex cone has dependent or too many generators."""
