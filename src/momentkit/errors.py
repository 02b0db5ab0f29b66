"""Exception taxonomy shared across the package, the quoting of user
input in error messages, and ``check_limit``, the one refusal of work over
a limit: every work limit in the package compares its count there."""

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


def check_limit(count, limit, subject, unit="") -> None:
    """Raise DomainError "<subject()> over the limit of <limit><unit>" when
    ``count > limit``.  ``subject`` is called on refusal only; it names the
    count and ends in "," or " is"."""
    if count > limit:
        raise DomainError(f"{subject()} over the limit of {limit}{unit}")


class EmptyRegionError(DomainError):
    """The half-spaces have empty intersection."""


class UnboundedRegionError(DomainError):
    """The feasible region has a nontrivial recession cone."""


class DegenerateInputError(DomainError):
    """Constraint data too degenerate to define the requested object."""


class NotDelzantError(DomainError):
    """Polytope is not simple/rational/smooth, so the toric dictionary fails."""


class NotGenericError(DomainError):
    """Direction pairs to zero with a weight: raised by ``pair_direction``."""


class NonSimpleVertexError(DomainError):
    """Vertex cone has dependent or too many generators."""
