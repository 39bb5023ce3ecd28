"""Exception hierarchy shared across the package.

A failure that no caller tells apart is a plain `ProvRefineError`; a
subclass exists only where some code of the package handles it apart,
by an `except` or an `isinstance` that names it."""


class ProvRefineError(Exception):
    """Base class for all package errors."""


class OracleLimitExceeded(ProvRefineError):
    """An exponential oracle was invoked on an instance above its size cap."""


class _AtLine(ProvRefineError):
    """An error in an input file; carries a line number, 0 if no one line is at fault."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
        self.message = message


class ParseError(_AtLine):
    """Syntax error in an input file."""


class DomainOverflow(_AtLine):
    """A derived integer left the configured domain bounds, or a guard took
    a modulus by 0."""


class SelfLoopArc(ProvRefineError):
    """An arc, `arc`, whose head occurs in its own body (forbidden by the
    bound machinery)."""

    def __init__(self, arc):
        super().__init__(f"self-loop arc (a head in its own body): {arc}")
        self.arc = arc


class ObservationOutOfRange(ProvRefineError):
    """An observation references facts outside what the blueprint can reach."""


class NotAModel(ProvRefineError):
    """An assignment claimed to satisfy a hard constraint does not."""


class BudgetExceeded(ProvRefineError):
    """A solver ran out of its time budget (distinct from unsatisfiability)."""
