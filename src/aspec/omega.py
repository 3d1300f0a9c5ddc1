"""Exact symbolic algebra on the compact sequence space {1/n : n >= 1} u {0}.

Elements are functions on that space, stored as two rational-expression
branches: the value at t = 1/(2n-1) (odd branch) and at t = 1/(2n) (even
branch), each as a function of n >= 1 with exact rational coefficients.
Limits at the accumulation point 0 are decided by degree comparison, never
by floating point, so classification results are bit-identical across runs.

The expression grammar (whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := rationalLiteral | 'n' | '(' expr ')' | '-' factor
    rationalLiteral := integer ('/' integer)?

Parentheses and unary minus signs nest at most 200 deep.  Element literals
combine two expressions: ``odd=<expr>;even=<expr>``.

The algebra is pure Python.  Only ``diagonal_truncation`` builds a numpy
matrix, and it imports numpy when called, so classifying elements never
loads numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

_ENUM_LIMIT = 1_000_000  # largest exact sign-analysis enumeration we accept
_MAX_NESTING = 200  # parentheses and unary minus signs: each level costs the parser up to 3 of Python's 1000 frames


class OmegaSyntaxError(ValueError):
    """Expression or element literal does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# polynomials over Q, as coefficient tuples (low degree first, no trailing 0)
# ---------------------------------------------------------------------------


def _ptrim(coeffs) -> tuple[Fraction, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Fraction(c) for c in coeffs)


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _ptrim(out)


def _pneg(p):
    return tuple(-c for c in p)


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    while len(rem) >= len(q):
        factor = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return _ptrim(quo), _ptrim(rem)


def _pgcd(p, q):
    a, b = _ptrim(p), _ptrim(q)
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return tuple(c / a[-1] for c in a)  # monic


def _peval(p, value: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * value + c
    return acc


def _pstr(p) -> str:
    """Grammar-compatible rendering, highest degree first; n^k prints as n*n*..."""
    if not p:
        return "0"
    parts: list[str] = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        factors = []
        if mag != 1 or k == 0:
            factors.append(str(mag))
        factors.extend(["n"] * k)
        body = "*".join(factors)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+" if c > 0 else "-") + body)
    return "".join(parts) if parts else "0"


def _integer_scaled(p) -> list[int]:
    scale = math.lcm(*(c.denominator for c in p)) if p else 1
    return [int(c * scale) for c in p]


def _positive_integer_roots(p) -> list[int]:
    """Integer roots >= 1, by the rational root theorem on the scaled polynomial.

    Coefficients without a sign change have no positive root (Descartes).
    Raises ValueError when the divisor scan would pass _ENUM_LIMIT.
    """
    ints = _integer_scaled(p)
    if len({c > 0 for c in ints if c}) < 2:
        return []
    while ints[0] == 0:
        ints.pop(0)
    c0 = abs(ints[0])
    if math.isqrt(c0) > _ENUM_LIMIT:
        raise ValueError("coefficients too large for exact root search")
    roots = []
    for r in range(1, int(math.isqrt(c0)) + 1):
        if c0 % r == 0:
            for cand in (r, c0 // r):
                if cand >= 1 and _peval(p, Fraction(cand)) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def _root_bound(p) -> int:
    """Cauchy bound: all real roots lie strictly inside [-B, B]."""
    if len(p) <= 1:
        return 1
    lead = abs(p[-1])
    return 1 + math.ceil(max(abs(c) for c in p[:-1]) / lead)


# ---------------------------------------------------------------------------
# rational expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalExpr:
    """Quotient of polynomials in n with exact rational coefficients.

    Stored reduced: the monic polynomial gcd is divided out and the leading
    denominator coefficient is positive.  The zero function has an empty
    numerator tuple.
    """

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @staticmethod
    def make(num, den=(Fraction(1),)) -> "RationalExpr":
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise ZeroDivisionError("division by the zero polynomial")
        g = _pgcd(num, den)
        if g and len(g) > 1:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
        if len(den) == 1 and den[0] != 1:
            # constant denominators fold into the numerator
            num = tuple(c / den[0] for c in num)
            den = (Fraction(1),)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return RationalExpr(num=num, den=den)

    @staticmethod
    def constant(c) -> "RationalExpr":
        c = Fraction(c)
        return RationalExpr.make((c,))

    @staticmethod
    def variable() -> "RationalExpr":
        return RationalExpr.make((Fraction(0), Fraction(1)))

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr.make(_pneg(self.num), self.den)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        return RationalExpr.make(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        return RationalExpr.make(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return _pmul(self.num, other.den) == _pmul(other.num, self.den)

    def __hash__(self):
        raise TypeError("RationalExpr is not hashable (equality is cross-multiplicative)")

    @property
    def is_zero(self) -> bool:
        return not self.num

    def reciprocal(self) -> "RationalExpr":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of the zero function")
        return RationalExpr.make(self.den, self.num)

    def eval(self, n: int) -> Fraction:
        denom = _peval(self.den, Fraction(n))
        if denom == 0:
            raise ZeroDivisionError(f"expression has a pole at n={n}")
        return _peval(self.num, Fraction(n)) / denom

    def pole_points(self) -> list[int]:
        """Integer points n >= 1 where the stored denominator vanishes."""
        return _positive_integer_roots(self.den)

    def to_string(self) -> str:
        num_str = _pstr(self.num)
        if self.den == (Fraction(1),):
            return num_str
        terms = sum(1 for c in self.num if c != 0)
        if terms > 1:
            num_str = f"({num_str})"
        den_str = _pstr(self.den)
        if self.den != (Fraction(0), Fraction(1)):  # anything but a bare 'n' needs parens
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __str__(self) -> str:
        return self.to_string()


ZERO_EXPR = RationalExpr.make(())


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


class LimitKind(Enum):
    FINITE = "finite"
    PLUS_INFINITY = "+inf"
    MINUS_INFINITY = "-inf"


@dataclass(frozen=True)
class Limit:
    """Exact limit of a rational expression as n -> infinity."""

    kind: LimitKind
    value: Optional[Fraction] = None

    @staticmethod
    def finite(v) -> "Limit":
        return Limit(LimitKind.FINITE, Fraction(v))

    @property
    def is_finite(self) -> bool:
        return self.kind is LimitKind.FINITE


def limit_at_infinity(e: RationalExpr) -> Limit:
    """Degree comparison of numerator and denominator; exact, no floats."""
    if e.is_zero:
        return Limit.finite(0)
    deg_n, deg_d = len(e.num) - 1, len(e.den) - 1
    if deg_n < deg_d:
        return Limit.finite(0)
    ratio = e.num[-1] / e.den[-1]
    if deg_n == deg_d:
        return Limit.finite(ratio)
    return Limit(LimitKind.PLUS_INFINITY if ratio > 0 else LimitKind.MINUS_INFINITY)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise OmegaSyntaxError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self) -> RationalExpr:
        value = self.expr()
        if self.peek():
            raise OmegaSyntaxError(f"unexpected trailing input {self.text[self.pos]!r}", self.pos)
        return value

    def expr(self) -> RationalExpr:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalExpr:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            start = self.pos
            self.pos += 1
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    raise OmegaSyntaxError("division by the zero polynomial", start)
                value = value / rhs
        return value

    def factor(self) -> RationalExpr:
        ch = self.peek()
        if ch in ("-", "("):
            if self.depth == _MAX_NESTING:
                raise OmegaSyntaxError(f"more than {_MAX_NESTING} nested parentheses and signs", self.pos)
            self.pos += 1
            self.depth += 1
            value = -self.factor() if ch == "-" else self.expr()
            self.depth -= 1
            if ch == "(":
                self.expect(")")
            return value
        if ch == "n":
            self.pos += 1
            return RationalExpr.variable()
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return RationalExpr.constant(int(self.text[start : self.pos]))
        raise OmegaSyntaxError(f"unexpected character {ch!r}" if ch else "unexpected end of input", self.pos)


@functools.lru_cache
def parse_rational(text: str) -> RationalExpr:
    """Parse an expression in the module grammar into a reduced RationalExpr.

    Each text is parsed once: the result, a frozen RationalExpr of Fraction
    tuples, is shared by every later call with the same text (the most recent
    128 texts are kept).  A syntax error is not cached and raises every time.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# elements of the sequence algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaElement:
    """Function on the sequence space, as odd/even branches plus its limit data.

    ``value_at_zero`` is the common finite branch limit when both exist and
    agree, else None (the function has no continuous extension to 0).
    """

    odd_branch: RationalExpr
    even_branch: RationalExpr
    value_at_zero: Optional[Fraction]

    @staticmethod
    def of(odd: RationalExpr, even: RationalExpr) -> "OmegaElement":
        for tag, branch in (("odd", odd), ("even", even)):
            poles = branch.pole_points()
            if poles:
                raise ValueError(f"{tag} branch undefined at n={poles[0]}")
        lo, le = limit_at_infinity(odd), limit_at_infinity(even)
        value = lo.value if (lo.is_finite and le.is_finite and lo.value == le.value) else None
        return OmegaElement(odd_branch=odd, even_branch=even, value_at_zero=value)

    @staticmethod
    def constant(c) -> "OmegaElement":
        e = RationalExpr.constant(c)
        return OmegaElement.of(e, e)

    def branch(self, tag: str) -> RationalExpr:
        if tag == "odd":
            return self.odd_branch
        if tag == "even":
            return self.even_branch
        raise ValueError(f"unknown branch tag {tag!r}")

    def __add__(self, other: "OmegaElement") -> "OmegaElement":
        return OmegaElement.of(self.odd_branch + other.odd_branch, self.even_branch + other.even_branch)

    def __sub__(self, other: "OmegaElement") -> "OmegaElement":
        return OmegaElement.of(self.odd_branch - other.odd_branch, self.even_branch - other.even_branch)

    def __neg__(self) -> "OmegaElement":
        return OmegaElement.of(-self.odd_branch, -self.even_branch)

    def __mul__(self, other: "OmegaElement") -> "OmegaElement":
        return OmegaElement.of(self.odd_branch * other.odd_branch, self.even_branch * other.even_branch)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaElement):
            return NotImplemented
        return self.odd_branch == other.odd_branch and self.even_branch == other.even_branch

    def __hash__(self):
        raise TypeError("OmegaElement is not hashable")

    def value_at(self, point_index: int) -> Fraction:
        """Value at the point t = 1/point_index, point_index >= 1."""
        if point_index < 1:
            raise ValueError("point index must be >= 1")
        if point_index % 2:
            return self.odd_branch.eval((point_index + 1) // 2)
        return self.even_branch.eval(point_index // 2)


def _branch_nonnegative(expr: RationalExpr) -> bool:
    """Exact decision of expr(n) >= 0 for every integer n >= 1.

    Signs are constant beyond the Cauchy root bound of numerator and
    denominator, so it suffices to enumerate integers up to that bound and
    compare leading coefficients for the tail.  Raises if the bound is too
    large to enumerate exactly (conservative failure, never a silent pass).
    """
    if expr.is_zero:
        return True
    bound = max(_root_bound(expr.num), _root_bound(expr.den))
    if bound > _ENUM_LIMIT:
        raise ValueError("coefficients too large for exact sign analysis")
    for k in range(1, bound + 1):
        if expr.eval(k) < 0:
            return False
    return expr.num[-1] * expr.den[-1] > 0


def is_well_supported(a: OmegaElement) -> bool:
    """False iff nonzero values of the element accumulate at 0.

    A branch that is not identically zero takes nonzero values at all but
    finitely many points; if such a branch tends to 0 the spectrum of the
    element accumulates at 0.  Requires a pointwise nonnegative element;
    negativity raises ValueError.
    """
    for tag in ("odd", "even"):
        if not _branch_nonnegative(a.branch(tag)):
            raise ValueError(f"{tag} branch takes a negative value; element is not positive")
    for tag in ("odd", "even"):
        branch = a.branch(tag)
        if not branch.is_zero and limit_at_infinity(branch) == Limit.finite(0):
            return False
    return True


# ---------------------------------------------------------------------------
# pointwise inverse classification
# ---------------------------------------------------------------------------


class Verdict(Enum):
    CONTINUOUS_INVERSE = "ContinuousInverse"
    BOUNDED_DISCONTINUOUS = "BoundedDiscontinuous"
    UNBOUNDED = "Unbounded"
    NO_SOLUTION = "NoSolution"


@dataclass(frozen=True)
class InverseClassification:
    """Outcome of the pointwise solve of a = a*x*y for y.

    ``witness`` is present for the two bounded verdicts; ``obstruction``
    carries the diverging branch (tag, expression) for the unbounded one.
    """

    verdict: Verdict
    witness: Optional[OmegaElement] = None
    obstruction: Optional[tuple[str, RationalExpr]] = None


def a_inverse_classify(a: OmegaElement, x: OmegaElement) -> InverseClassification:
    """Classify the pointwise inverse y forced by a = a*x*y on the support of a.

    Where a branch of ``a`` is not identically zero, y is forced to the
    reciprocal of the corresponding branch of ``x``; off the support the
    branch is completed by 0, or by the single constant that restores
    continuity when one exists.  The verdict follows from exact limit
    analysis of the forced branches.
    """
    forced: dict[str, RationalExpr] = {}
    for tag in ("odd", "even"):
        ab, xb = a.branch(tag), x.branch(tag)
        if ab.is_zero:
            continue
        if xb.is_zero:
            return InverseClassification(verdict=Verdict.NO_SOLUTION)
        inv = xb.reciprocal()
        for pole in inv.pole_points():
            if ab.eval(pole) != 0:
                # a is nonzero where x vanishes: no pointwise solution at all
                return InverseClassification(verdict=Verdict.NO_SOLUTION)
            raise ValueError(
                f"forced {tag} branch has a pole at n={pole} off the support; "
                "not representable in the two-branch model"
            )
        forced[tag] = inv

    diverging = [(tag, forced[tag]) for tag in ("odd", "even") if tag in forced and not limit_at_infinity(forced[tag]).is_finite]
    if diverging:
        return InverseClassification(verdict=Verdict.UNBOUNDED, obstruction=diverging[0])

    branches: dict[str, RationalExpr] = {}
    completion = Fraction(0)
    if len(forced) == 1:
        only = next(iter(forced.values()))
        completion = limit_at_infinity(only).value
    for tag in ("odd", "even"):
        branches[tag] = forced.get(tag, RationalExpr.constant(completion))
    witness = OmegaElement.of(branches["odd"], branches["even"])
    verdict = Verdict.CONTINUOUS_INVERSE if witness.value_at_zero is not None else Verdict.BOUNDED_DISCONTINUOUS
    return InverseClassification(verdict=verdict, witness=witness)


# ---------------------------------------------------------------------------
# canonical demo data and matrix truncation
# ---------------------------------------------------------------------------


def demo_weight() -> OmegaElement:
    """Nonnegative weight supported on the even-index points, values 1/(2n).

    Not well-supported: its nonzero values shrink to 0.
    """
    return OmegaElement.of(ZERO_EXPR, parse_rational("1/(2*n)"))


def demo_function() -> OmegaElement:
    """The coordinate function t: odd branch 1/(2n-1), even branch 1/(2n)."""
    return OmegaElement.of(parse_rational("1/(2*n-1)"), parse_rational("1/(2*n)"))


def parse_element(literal: str) -> OmegaElement:
    """Parse an element literal ``odd=<expr>;even=<expr>``."""
    parts = [p.strip() for p in literal.split(";") if p.strip()]
    branches: dict[str, RationalExpr] = {}
    for part in parts:
        key, sep, body = part.partition("=")
        key = key.strip()
        if not sep or key not in ("odd", "even"):
            raise ValueError(f"element literal needs 'odd=<expr>;even=<expr>', got segment {part!r}")
        if key in branches:
            raise ValueError(f"duplicate branch {key!r} in element literal")
        branches[key] = parse_rational(body)
    if set(branches) != {"odd", "even"}:
        raise ValueError("element literal must define both 'odd' and 'even' branches")
    return OmegaElement.of(branches["odd"], branches["even"])


def element_to_literal(e: OmegaElement) -> str:
    return f"odd={e.odd_branch};even={e.even_branch}"


def diagonal_truncation(e: OmegaElement, points: int) -> np.ndarray:
    """Diagonal matrix of the element's values at the first ``points`` points
    t = 1, 1/2, ..., 1/points (float64)."""
    import numpy as np

    if points < 1:
        raise ValueError("points must be >= 1")
    values = [float(e.value_at(k)) for k in range(1, points + 1)]
    return np.diag(np.asarray(values, dtype=np.complex128))
