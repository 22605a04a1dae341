"""Exception types shared across the package."""


class HessquotError(Exception):
    """Base class for package errors."""


class ConeViolation(HessquotError):
    """A spectrum left the admissibility cone Gamma_k."""

    def __init__(self, message, node=None, margin=None):
        super().__init__(message)
        self.node = node
        self.margin = margin


class SamplingExhausted(HessquotError):
    """Rejection sampler hit its draw cap before producing enough samples."""


class DegenerateJet(HessquotError):
    """Pointwise data cannot define a hypersurface (rho <= 0 or non-finite)."""


class NonpositiveF(HessquotError):
    """Prescription value must be strictly positive."""


class TooCoarse(HessquotError):
    """Grid resolution below the supported minimum."""


class SizeMismatch(HessquotError):
    """Field length does not match the grid."""


class ExpressionError(HessquotError):
    """Base class for expression parsing/evaluation errors."""


class ParseError(ExpressionError):
    """`position` is the offset in the source text, or None when the error is
    found in a tree, which keeps no offsets."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (offset {position})")
        self.position = position


class UnknownIdentifier(ParseError):
    def __init__(self, name, position=None, context=None):
        message = f"unknown identifier '{name}'"
        super().__init__(message if context is None else f"{message} in {context}", position)
        self.name = name


class EvalError(ExpressionError):
    def __init__(self, message, subexpression):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression


class BadAnnulus(HessquotError):
    """Annulus radii must satisfy 0 < r1 < 1 < r2 < inf."""


class NoConvergence(HessquotError):
    """Newton corrector failed: a freshly factored step was inadmissible or did
    not decrease the residual, or the iteration budget ran out."""


class ContinuationStalled(HessquotError):
    """Continuation step size underflowed before reaching t = 1."""

    def __init__(self, message, last_t, field, trace):
        super().__init__(message)
        self.last_t = last_t
        self.field = field
        self.trace = trace


class MonitorViolation(HessquotError):
    """An accepted state broke a bound the validated problem guarantees."""

    def __init__(self, message, t, snapshot, field, trace):
        super().__init__(message)
        self.t = t
        self.snapshot = snapshot
        self.field = field
        self.trace = trace


class ConfigError(HessquotError):
    def __init__(self, message, key=None, line=None):
        loc = []
        if key:
            loc.append(f"key '{key}'")
        if line is not None:
            loc.append(f"line {line}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)
        self.key = key
        self.line = line
