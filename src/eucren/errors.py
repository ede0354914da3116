"""Error taxonomy shared by all modules.

Every failure mode that callers are expected to handle gets its own
class; the CLI maps a subset of these to process exit codes.
"""


class EucrenError(Exception):
    """Base class for all package errors."""


class QuadratureFailure(EucrenError):
    """An adaptive quadrature did not converge to the requested tolerance."""


class PreconditionViolated(EucrenError):
    """A caller-side precondition (support geometry, index range) fails."""


class UnsupportedCase(EucrenError):
    """The requested object exists mathematically but is outside v1 scope,
    or does not exist at all (e.g. a decaying massless kernel in d <= 2)."""


class NonIntegrableSingularity(EucrenError):
    """A bare kernel with nonnegative degree of divergence was paired
    against a test function that does not vanish at the singular locus."""


class UnsupportedKernel(EucrenError):
    """Wave-front data was requested for a kernel class without a rule."""


class DomainError(EucrenError):
    """The partial product was invoked outside its domain
    (overlapping supports)."""


class NonLinearInput(EucrenError):
    """An operation restricted to linear functionals received a
    higher-degree one."""


class NotPrimitive(EucrenError):
    """extend() was asked to handle a kernel that still contains
    unrenormalized sub-loci."""


class OverlappingDivergence(EucrenError):
    """The divergence forest is neither nested nor disjoint."""


class IllConditionedFit(EucrenError):
    """A scaling-degree fit has residual above threshold."""


class ParseError(EucrenError):
    """Configuration text is invalid; carries a location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


# Exit codes used by the command line front-end.
EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONINTEGRABLE = 4
EXIT_QUADRATURE = 5
EXIT_UNSUPPORTED = 6

EXIT_CODE_BY_ERROR = {
    ParseError: EXIT_PARSE,
    DomainError: EXIT_DOMAIN,
    NonIntegrableSingularity: EXIT_NONINTEGRABLE,
    QuadratureFailure: EXIT_QUADRATURE,
    IllConditionedFit: EXIT_QUADRATURE,
    UnsupportedCase: EXIT_UNSUPPORTED,
    NotPrimitive: EXIT_UNSUPPORTED,
    OverlappingDivergence: EXIT_UNSUPPORTED,
}


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code (1 for anything unlisted)."""
    for cls, code in EXIT_CODE_BY_ERROR.items():
        if isinstance(exc, cls):
            return code
    return 1
