"""Prescription expressions, the homotopy family, and assumption checks.

Expressions are built from a small grammar:

    variables   x1..x{n+1}  nu1..nu{n+1}  rho        (rho binds to |X|)
    operators   + - * / ^                            (^ right-assoc, then
                                                       unary -, then * /,
                                                       then + -)
    functions   exp log sin cos sqrt abs
    literals    decimal numbers, optional exponent

The homotopy blends a user prescription f with a radial reference term so
that t = 0 is solved exactly by the unit sphere:

    f_t(X, nu) = t f(X, nu)
               + (1 - t) R (|X|^-m + eps (|X|^-m - 1)),   m = k - l,

with R = C(n,k)/C(n,l) (n-1)^m.  eps is picked so the bracket stays above
c0 = r2^-m / 2 on the annulus [r1, r2], halved for safety and capped at 0.1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import BadAnnulus, EvalError, ParseError, UnknownIdentifier
from .symfun import QuotientParams

__all__ = [
    "Expr",
    "parse_f",
    "to_source",
    "eval_f",
    "HomotopyTarget",
    "check_annulus",
    "make_homotopy",
    "eval_homotopy",
    "reference_level",
    "AssumptionCheck",
    "AssumptionReport",
    "validate_assumptions",
    "quasi_uniform_directions",
]

EPSILON_CAP = 0.1
# directions on each bounding sphere checked by validate_assumptions
VALIDATE_SAMPLES = 400
_FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_VAR_RE = re.compile(r"(x|nu)([0-9]+)$")


class Expr:
    """Base class of expression nodes; calling a tree evaluates it like eval_f."""

    def __call__(self, X, nu):
        return eval_f(self, X, nu)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    kind: str          # "rho", "x" or "nu"
    index: int         # 1-based component for x/nu, 0 for rho


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str):
    tokens = []
    pos = 0
    end = len(source.rstrip())   # trailing blanks end the input
    while pos < end:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            at = len(source) - len(source[pos:].lstrip())
            raise ParseError(f"unexpected character {source[at]!r}", at)
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


# binding strength of each operator, shared by the parser and to_source
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


class _Parser:
    def __init__(self, source: str, dim=None):
        self.source = source
        self.dim = dim
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.source))
        self.pos += 1
        return tok

    def expect_op(self, op):
        tok = self.peek()
        if tok is None or tok[0] != "op" or tok[1] != op:
            at = tok[2] if tok else len(self.source)
            raise ParseError(f"expected '{op}'", at)
        self.pos += 1

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return expr

    def expr(self, floor: int = 1) -> Expr:
        """Precedence climbing over _PRECEDENCE: binary operators that bind at
        least as tightly as `floor`, with a leading '-' on any operand."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.pos += 1
            node = Neg(self.expr(_PRECEDENCE["neg"]))
        else:
            node = self.atom()
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok[1], 0) if tok and tok[0] == "op" else 0
            if prec < floor:
                return node
            self.pos += 1
            # '^' is right-associative, every other operator left-associative
            node = Bin(tok[1], node, self.expr(prec if tok[1] == "^" else prec + 1))

    def atom(self) -> Expr:
        kind, text, at = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            if text == "rho":
                return Var("rho", 0)
            m = _VAR_RE.match(text)
            if m and (self.dim is None or 1 <= int(m.group(2)) <= self.dim):
                return Var(m.group(1), int(m.group(2)))
            raise UnknownIdentifier(text, at)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", at)


def parse_f(source: str, dim: int | None = None) -> Expr:
    """Parse a prescription into an expression tree; given the ambient dimension
    `dim`, a coordinate x_i or nu_i outside 1..dim is an UnknownIdentifier."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source, dim).parse()


def _prec(node: Expr) -> int:
    if isinstance(node, Bin):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _PRECEDENCE["neg"]
    return 9


def to_source(node: Expr) -> str:
    """Render a tree back to text; parse(to_source(e)) is structurally e."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "rho" if node.kind == "rho" else f"{node.kind}{node.index}"
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.arg)
        if _prec(node.arg) < _PRECEDENCE["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Bin):
        left = to_source(node.left)
        right = to_source(node.right)
        p = _PRECEDENCE[node.op]
        # left operand: parenthesize strictly lower precedence; right operand:
        # also parenthesize equal precedence except for the right-assoc '^'
        if _prec(node.left) < p or (node.op == "^" and isinstance(node.left, (Bin, Neg))):
            left = f"({left})"
        rp = _prec(node.right)
        if rp < p or (rp == p and node.op in {"-", "/", "+", "*"}):
            right = f"({right})"
        return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def _check_domain(ok: np.ndarray, message: str, node: Expr):
    if not ok.all():
        raise EvalError(message, to_source(node))


def _eval_node(node: Expr, rho, X, nu):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.kind == "rho":
            return rho
        source = X if node.kind == "x" else nu
        dim = source.shape[-1]
        if not 1 <= node.index <= dim:
            name = f"{node.kind}{node.index}"
            raise UnknownIdentifier(name, context=f"ambient dimension {dim}")
        return source[..., node.index - 1]
    if isinstance(node, Neg):
        return -_eval_node(node.arg, rho, X, nu)
    if isinstance(node, Call):
        arg = np.asarray(_eval_node(node.arg, rho, X, nu), dtype=float)
        if node.fn == "log":
            _check_domain(arg > 0.0, "log of a nonpositive value", node)
        elif node.fn == "sqrt":
            _check_domain(arg >= 0.0, "sqrt of a negative value", node)
        return _FUNCTIONS[node.fn](arg)
    if isinstance(node, Bin):
        left = np.asarray(_eval_node(node.left, rho, X, nu), dtype=float)
        right = np.asarray(_eval_node(node.right, rho, X, nu), dtype=float)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            _check_domain(right != 0.0, "division by zero", node)
            return left / right
        if node.op == "^":
            out = np.power(left, right)
            _check_domain(np.isfinite(out), "power outside the real domain", node)
            return out
    raise TypeError(f"not an expression node: {node!r}")


def _row_norm(A):
    """Euclidean norm over the last axis, without np.linalg.norm's overhead."""
    return np.sqrt(np.einsum("...i,...i->...", A, A))


def eval_f(expr: Expr, X, nu):
    """Evaluate at position X and unit normal nu; both (d,) or (N, d) arrays.
    A non-finite value (exp overflow, say) is returned without a warning."""
    X = np.asarray(X, dtype=float)
    return _eval_at(expr, X, np.asarray(nu, dtype=float), _row_norm(X))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _eval_at(expr: Expr, X, nu, rho):
    """eval_f on float arrays X and nu, given rho = |X| row by row."""
    scalar = X.ndim == 1
    if (rho == 0.0).any():
        raise ValueError("X must be nonzero")
    if (np.abs(_row_norm(nu) - 1.0) > 1e-8).any():
        raise ValueError("nu must be a unit vector (within 1e-8)")
    out = np.asarray(_eval_node(expr, rho, X, nu), dtype=float)
    if scalar:
        return float(out)
    return np.ascontiguousarray(np.broadcast_to(out, np.shape(rho)), dtype=float)


def reference_level(p: QuotientParams) -> float:
    """Quotient value of the unit sphere: C(n,k)/C(n,l) (n-1)^(k-l)."""
    return p.binomial_ratio * (p.n - 1) ** p.gap


@dataclass
class HomotopyTarget:
    """The family f_t; `base` is a callable f(X, nu), such as an Expr."""

    base: object
    p: QuotientParams
    r1: float
    r2: float
    epsilon: float
    c0: float


def _pick_epsilon(m: int, r2: float):
    """Largest eps keeping rho^-m + eps (rho^-m - 1) >= c0 on [r1, r2], then
    halved and capped.  Only rho > 1 constrains eps, and there the bound
    (rho^-m - c0)/(1 - rho^-m) falls as rho grows, so r2 sets it."""
    c0 = 0.5 * r2 ** (-m)
    a = r2 ** (-float(m))
    return min(EPSILON_CAP, (a - c0) / (1.0 - a) / 2.0), c0


def check_annulus(r1: float, r2: float):
    """Raise BadAnnulus unless 0 < r1 < 1 < r2 < inf."""
    if not (0.0 < r1 < 1.0 < r2 < math.inf):
        raise BadAnnulus(f"annulus must satisfy 0 < r1 < 1 < r2 < inf, got ({r1}, {r2})")


def make_homotopy(base, p: QuotientParams, r1: float, r2: float) -> HomotopyTarget:
    check_annulus(r1, r2)
    eps, c0 = _pick_epsilon(p.gap, r2)
    return HomotopyTarget(base=base, p=p, r1=r1, r2=r2, epsilon=eps, c0=c0)


def eval_homotopy(target: HomotopyTarget, t: float, X, nu):
    """f_t(X, nu) = t f + (1 - t) R (|X|^-m + eps (|X|^-m - 1))."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    X = np.asarray(X, dtype=float)
    rho = _row_norm(X)
    rho_m = rho ** (-float(target.p.gap))
    bracket = rho_m + target.epsilon * (rho_m - 1.0)
    radial = reference_level(target.p) * bracket
    if t == 0.0:
        out = radial
    else:
        base = target.base
        # an Expr reuses |X|; eval_f's checks on X and nu still run
        f = (_eval_at(base, X, np.asarray(nu, dtype=float), rho) if isinstance(base, Expr)
             else base(X, nu))
        out = t * f + (1.0 - t) * radial
    return float(out) if np.ndim(out) == 0 else out


def quasi_uniform_directions(count: int, dim: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors in R^dim.

    dim = 3 uses the Fibonacci lattice; other dimensions map a Kronecker
    low-discrepancy sequence through the normal quantile and normalize.
    """
    if dim == 3:
        i = np.arange(count) + 0.5
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.clip(1.0 - z * z, 0.0, 1.0))
        phi = 2.0 * math.pi * i / golden
        return np.stack([z, r * np.cos(phi), r * np.sin(phi)], axis=-1)
    from scipy.special import ndtri

    # generalized golden-ratio Kronecker sequence
    g = 2.0
    for _ in range(32):
        g = (1.0 + g) ** (1.0 / (dim + 1.0))
    alphas = np.array([(1.0 / g) ** (j + 1) for j in range(dim)])
    i = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + i * alphas[None, :], 1.0)
    z = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@dataclass
class AssumptionCheck:
    passed: bool
    worst_margin: float
    worst_point: np.ndarray


@dataclass
class AssumptionReport:
    """Checks required before continuation is trusted.

    outer_bound:    f(X, X/|X|) below the round-sphere level on |X| = r2
    inner_bound:    f(X, X/|X|) above the round-sphere level on |X| = r1
    radial_monotone: rho^(k-l) f(X, nu) non-increasing along rays from r1 to r2
    """

    outer_bound: AssumptionCheck
    inner_bound: AssumptionCheck
    radial_monotone: AssumptionCheck

    @property
    def all_passed(self) -> bool:
        return (
            self.outer_bound.passed
            and self.inner_bound.passed
            and self.radial_monotone.passed
        )


def _worst(margins: np.ndarray, points: np.ndarray, tol: float) -> AssumptionCheck:
    """The check on the least margin, taken at points[i] for margins[i]; the
    points have the margins' shape plus the ambient dimension."""
    i = np.unravel_index(np.argmin(margins), margins.shape)
    return AssumptionCheck(
        passed=bool(margins[i] >= -tol),
        worst_margin=float(margins[i]),
        worst_point=points[i].copy(),
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def validate_assumptions(base, p: QuotientParams, r1: float, r2: float) -> AssumptionReport:
    """Check the three conditions on f at samples, each up to a rounding bound:
    the bounds at VALIDATE_SAMPLES directions on |X| = r2 and r1, monotonicity
    on 64 directions x 8 normals over 17 radii from r1 to r2, where the margin is
    the least -Delta(rho^(k-l) f)/Delta rho between neighbouring radii.  Both
    direction sets also hold the polar axis +-e1, a node of every axisym grid,
    which no quasi-uniform direction lands on; a NaN margin fails its check."""
    check_annulus(r1, r2)
    dim = p.n + 1
    m = p.gap
    poles = np.array([[1.0], [-1.0]]) * np.eye(dim)[0]
    dirs = np.vstack([quasi_uniform_directions(VALIDATE_SAMPLES, dim), poles])

    level = p.binomial_ratio * ((p.n - 1) / r2) ** m
    f_outer = np.asarray(base(r2 * dirs, dirs), dtype=float)
    outer = _worst(level - f_outer, r2 * dirs, tol=1e-12 * max(1.0, abs(level)))

    level = p.binomial_ratio * ((p.n - 1) / r1) ** m
    f_inner = np.asarray(base(r1 * dirs, dirs), dtype=float)
    inner = _worst(f_inner - level, r1 * dirs, tol=1e-12 * max(1.0, abs(level)))

    # g = rho^(k-l) f on a ladder of radii from r1 to r2 along each (direction,
    # normal) pair, direction-major; a segment's margin is -dg/drho across it
    xdirs = np.vstack([quasi_uniform_directions(64, dim), poles])
    n_dir, n_nu, n_rho = len(xdirs), 8, 17
    nus = quasi_uniform_directions(n_nu, dim)
    rhos = np.linspace(r1, r2, n_rho)
    # written in place, from the first normal and the first direction, so
    # that no repeated or tiled copy of the ladder is made
    points, nu = np.empty((2, n_dir, n_nu, n_rho, dim))
    np.multiply(rhos[:, None], xdirs[:, None], out=points[:, 0])
    points[:, 1:] = points[:, :1]
    nu[0] = nus[:, None]
    nu[1:] = nu[0]
    g = np.asarray(base(points.reshape(-1, dim), nu.reshape(-1, dim)), dtype=float)
    g = g.reshape(-1, n_rho) * rhos ** m
    d_rho = np.diff(rhos)
    margins = -np.diff(g, axis=1) / d_rho
    tol = 1e-12 * np.abs(g[np.isfinite(g)]).max(initial=1.0) / d_rho.min()
    # segment k of a pair starts at the pair's point at radius k
    monotone = _worst(margins, points.reshape(-1, n_rho, dim), tol=tol)
    return AssumptionReport(outer_bound=outer, inner_bound=inner, radial_monotone=monotone)
