"""Exception hierarchy shared across the package."""


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


class UnknownParameter(ProvRefineError):
    """An abstraction mentions a parameter the analysis does not declare."""


class SelfLoopArc(ProvRefineError):
    """An arc, `arc`, whose head occurs in its own body (forbidden by the
    bound machinery)."""

    def __init__(self, arc):
        super().__init__(f"self-loop arc (a head in its own body): {arc}")
        self.arc = arc


class ObservationOutOfRange(ProvRefineError):
    """An observation references facts outside what the blueprint can reach."""


class MissingHyperparameter(ProvRefineError):
    """A hyperparameter table lacks a rule type that is asked of it."""


class DegenerateTrainingSet(ProvRefineError):
    """No observation constrains any hyperparameter; nothing to learn."""


class CorpusTooSmall(ProvRefineError):
    """Leave-one-out needs at least two programs."""


class WeightOverflow(ProvRefineError):
    """A weight does not fit the integral WCNF encoding, or a model's
    weights sum past the float range."""


class NotAModel(ProvRefineError):
    """An assignment claimed to satisfy a hard constraint does not."""


class QueryNotInProvenance(ProvRefineError):
    """The query fact is not a vertex of the provenance being encoded."""


class BudgetExceeded(ProvRefineError):
    """A solver ran out of its time budget (distinct from unsatisfiability)."""
