"""Exception types raised by the library."""


class GhzSelfTestError(Exception):
    """Base class for all library errors."""


class InvalidInput(GhzSelfTestError, ValueError):
    """Malformed or out-of-contract argument."""


class NotHermitian(InvalidInput):
    """Matrix expected to be Hermitian is not (within tolerance)."""


class InvalidBloch(InvalidInput):
    """Bloch vector longer than 1."""


class PreconditionViolated(InvalidInput):
    """Numerical precondition (e.g. antipodal messages) does not hold."""


class InequalityViolated(InvalidInput):
    """Operator inequality fails on a margin sweep; ``result`` is the sweep's
    ``GridResult``."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class NotSelfTestable(GhzSelfTestError):
    """Operators too far from the self-testing regime to align."""


class Unsupported(GhzSelfTestError):
    """Requested parameter range is outside what the library certifies."""
