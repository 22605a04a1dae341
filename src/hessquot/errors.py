"""Exception types shared across the package."""


class HessquotError(Exception):
    """Base class for package errors."""


class ConeViolation(HessquotError):
    """A spectrum left the admissibility cone Gamma_k."""

    def __init__(self, message, node=None, margin=None):
        super().__init__(message)
        self.node = node
        self.margin = margin


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


class _SolveEnded(HessquotError):
    """A solve that ended short of its target; `solution` is the SolutionField
    of the last accepted state, on the target grid, with the trace up to it."""

    def __init__(self, message, solution):
        super().__init__(message)
        self.solution = solution


class ContinuationStalled(_SolveEnded):
    """Continuation step size underflowed before reaching t = 1."""


class MonitorViolation(_SolveEnded):
    """An accepted state, the solution's last, broke a bound the validated problem guarantees."""


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
