"""Exact symbolic sequence-space algebra: parser, limits, classification."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aspec.invert import a_invertible
from aspec.omega import (
    Limit,
    OmegaElement,
    OmegaSyntaxError,
    RationalExpr,
    Verdict,
    ZERO_EXPR,
    a_inverse_classify,
    demo_function,
    demo_weight,
    diagonal_truncation,
    element_to_literal,
    is_well_supported,
    limit_at_infinity,
    parse_element,
    parse_rational,
)
from aspec.omega import _branch_nonnegative, _peval, _pmul
from aspec.psd import psd_decompose
from aspec.seminorm import a_seminorm


def test_parse_literal_halving():
    e = parse_rational("1/(2*n)")
    assert e.num == (Fraction(1),)
    assert e.den == (Fraction(0), Fraction(2))


def test_parse_keeps_reduced_quotient():
    e = parse_rational("(n+1)/(n-1)")
    assert e.num == (Fraction(1), Fraction(1))
    assert e.den == (Fraction(-1), Fraction(1))


def test_parse_zero_denominator():
    with pytest.raises(OmegaSyntaxError):
        parse_rational("1/(n-n)")


def test_parse_reports_position():
    with pytest.raises(OmegaSyntaxError) as err:
        parse_rational("1 + * 2")
    assert err.value.position == 4


def test_parse_is_memoized_and_errors_raise_every_time():
    first = parse_rational("(3*n+1)/(n+2)")
    assert parse_rational("(3*n+1)/(n+2)") is first
    assert first == RationalExpr.make((1, 3), (2, 1))
    for _ in range(2):
        with pytest.raises(OmegaSyntaxError) as err:
            parse_rational("1 + * 2")
        assert err.value.position == 4


@pytest.mark.parametrize("text", ["(" * 400 + "n" + ")" * 400, "-" * 3000 + "n"], ids=["parentheses", "signs"])
def test_parse_rejects_nesting_beyond_the_limit(text):
    # each level recurses, so past the limit the parser raises a syntax error, not RecursionError
    for _ in range(2):  # the error is not cached
        with pytest.raises(OmegaSyntaxError, match="nested") as err:
            parse_rational(text)
        assert err.value.position == 200
    assert parse_rational("(" * 100 + "n" + ")" * 100) == parse_rational("-" * 100 + "n") == RationalExpr.variable()


def test_limits():
    assert limit_at_infinity(parse_rational("1/(2*n)")) == Limit.finite(0)
    assert limit_at_infinity(parse_rational("2*n")).kind.value == "+inf"
    assert limit_at_infinity(parse_rational("-n*n/(n+1)")).kind.value == "-inf"
    assert limit_at_infinity(parse_rational("(3*n+1)/(n+2)")) == Limit.finite(3)


def test_algebra_additive_inverse():
    x = demo_function()
    zero = x - x
    assert zero.odd_branch.is_zero and zero.even_branch.is_zero
    assert zero.value_at_zero == 0
    assert -x == parse_element("odd=-1/(2*n-1);even=-1/(2*n)") and -x + x == zero


def test_algebra_pointwise_square():
    x = demo_function()
    sq = x * x
    assert sq.odd_branch == parse_rational("1/((2*n-1)*(2*n-1))")
    assert sq.even_branch == parse_rational("1/(4*n*n)")
    assert sq.value_at_zero == 0


def test_algebra_weight_times_function():
    ax = demo_weight() * demo_function()
    assert ax.odd_branch.is_zero
    assert ax.even_branch == parse_rational("1/(4*n*n)")


def test_scalar_element():
    half = OmegaElement.constant(Fraction(1, 2))
    assert half.value_at_zero == Fraction(1, 2)
    assert (half + half).value_at_zero == 1


def test_well_supportedness():
    assert is_well_supported(demo_weight()) is False
    assert is_well_supported(OmegaElement.constant(1)) is True
    assert is_well_supported(OmegaElement.constant(0)) is True


def test_well_supportedness_rejects_negative():
    with pytest.raises(ValueError):
        is_well_supported(OmegaElement.constant(-1))


def test_classify_demo_is_unbounded():
    result = a_inverse_classify(demo_weight(), demo_function())
    assert result.verdict is Verdict.UNBOUNDED
    tag, expr = result.obstruction
    assert tag == "even"
    assert str(expr) == "2*n"
    assert result.witness is None


def test_classify_constants():
    a, x = OmegaElement.constant(1), OmegaElement.constant(2)
    result = a_inverse_classify(a, x)
    assert result.verdict is Verdict.CONTINUOUS_INVERSE
    assert result.witness == OmegaElement.constant(Fraction(1, 2))
    assert a == a * x * result.witness  # pointwise identity, exact


def test_classify_off_support_completion():
    # only the even branch is forced; the constant completion restores continuity
    a, x = demo_weight(), OmegaElement.constant(2)
    result = a_inverse_classify(a, x)
    assert result.verdict is Verdict.CONTINUOUS_INVERSE
    assert result.witness.even_branch == RationalExpr.constant(Fraction(1, 2))
    assert result.witness.odd_branch == RationalExpr.constant(Fraction(1, 2))
    assert result.witness.value_at_zero == Fraction(1, 2)
    assert a == a * x * result.witness


def test_classify_no_solution():
    zero_even = parse_element("odd=1;even=0")
    weight = parse_element("odd=1;even=1")
    assert a_inverse_classify(weight, zero_even).verdict is Verdict.NO_SOLUTION
    # x vanishes at the integer point n = 1 of the odd branch, where a does not
    assert a_inverse_classify(weight, parse_element("odd=n-1;even=1")).verdict is Verdict.NO_SOLUTION


def test_classify_refuses_a_forced_pole_off_the_support():
    # a and x both vanish at n = 1 of the odd branch: the forced 1/(n-1) has a pole the two-branch model cannot hold
    x = parse_element("odd=n-1;even=1")
    with pytest.raises(ValueError, match="pole at n=1 off the support"):
        a_inverse_classify(x, x)


def test_classify_bounded_discontinuous():
    a = parse_element("odd=1;even=1")
    x = parse_element("odd=1;even=2")
    result = a_inverse_classify(a, x)
    assert result.verdict is Verdict.BOUNDED_DISCONTINUOUS
    assert result.witness.value_at_zero is None


def test_classification_is_reproducible():
    first = a_inverse_classify(demo_weight(), demo_function())
    second = a_inverse_classify(demo_weight(), demo_function())
    assert first == second
    assert str(first.obstruction[1]) == str(second.obstruction[1])


def test_element_literal_roundtrip():
    a = demo_weight()
    assert parse_element(element_to_literal(a)) == a
    with pytest.raises(ValueError):
        parse_element("odd=1")
    with pytest.raises(ValueError):
        parse_element("odd=1;odd=2;even=3")
    with pytest.raises(ValueError, match=re.escape("needs 'odd=<expr>;even=<expr>', got segment 'evn=2'")):
        parse_element("odd=1;evn=2")


def test_element_rejects_pole_on_domain():
    with pytest.raises(ValueError):
        OmegaElement.of(parse_rational("1/(n-3)"), RationalExpr.constant(0))


def test_pole_search_finds_a_pole_at_any_size():
    # no sign change: no positive root (Descartes), decided without a Sturm chain
    e = parse_element(f"odd=1/(n+{10**30});even=1")
    assert e.odd_branch.pole_points() == []
    # a sign change: the chain isolates the root, and the element is refused for its pole there
    with pytest.raises(ValueError, match=f"^odd branch undefined at n={10**30}$"):
        parse_element(f"odd=1/(n-{10**30});even=1")


def test_truncation_growth():
    a_el, x_el = demo_weight(), demo_function()
    for n_points in (10, 100):
        a = diagonal_truncation(a_el, n_points)
        x = diagonal_truncation(x_el, n_points)
        dec = psd_decompose(a)
        res = a_invertible(dec, x)
        assert res.invertible
        assert a_seminorm(dec, res.canonical).value >= n_points


# two literal (a, x) pairs per verdict, the pairs of the benchmark's omega pool
_VERDICT_PAIRS = (
    ("odd=1;even=1", "odd=2;even=2", Verdict.CONTINUOUS_INVERSE),
    ("odd=1/n;even=1/n", "odd=(n+1)/n;even=(n+2)/n", Verdict.CONTINUOUS_INVERSE),
    ("odd=1;even=1", "odd=1;even=2", Verdict.BOUNDED_DISCONTINUOUS),
    ("odd=1;even=1/n", "odd=n/(n+1);even=(2*n+1)/n", Verdict.BOUNDED_DISCONTINUOUS),
    ("odd=0;even=1/(2*n)", "odd=1/(2*n-1);even=1/(2*n)", Verdict.UNBOUNDED),
    ("odd=1;even=0", "odd=1/n;even=5", Verdict.UNBOUNDED),
    ("odd=1;even=1", "odd=0;even=1", Verdict.NO_SOLUTION),
    ("odd=1/(n*n);even=1/n", "odd=1;even=0", Verdict.NO_SOLUTION),
)


def _truncation_oracle(a_el: OmegaElement, x_el: OmegaElement, n_points: int) -> Fraction | None:
    """The seminorm of the inverse of the n_points truncation, exactly: max |1/x(t_i)| over the points where
    a(t_i) != 0, or None when x vanishes at one of them and the truncation has no inverse."""
    values = [x_el.value_at(i) for i in range(1, n_points + 1) if a_el.value_at(i) != 0]
    if any(v == 0 for v in values):
        return None
    return max((abs(1 / v) for v in values), default=Fraction(0))


@pytest.mark.parametrize(
    ("a_lit", "x_lit", "verdict"), _VERDICT_PAIRS, ids=[f"{v.value}{i % 2}" for i, (_, _, v) in enumerate(_VERDICT_PAIRS)]
)
def test_truncations_agree_with_the_exact_oracle(a_lit, x_lit, verdict):
    a_el, x_el = parse_element(a_lit), parse_element(x_lit)
    assert a_inverse_classify(a_el, x_el).verdict is verdict
    norms = []
    for n_points in (5, 10, 20, 40, 80):
        dec = psd_decompose(diagonal_truncation(a_el, n_points))
        res = a_invertible(dec, diagonal_truncation(x_el, n_points))
        norm = _truncation_oracle(a_el, x_el, n_points)
        assert res.invertible is (norm is not None), n_points
        if norm is not None:
            assert a_seminorm(dec, res.canonical).value == pytest.approx(float(norm), rel=1e-12, abs=0), n_points
        norms.append(norm)
    # N grows 16-fold from 5 to 80: an unbounded inverse grows with it, a bounded one does not
    if verdict is Verdict.NO_SOLUTION:
        assert norms == [None] * 5
    elif verdict is Verdict.UNBOUNDED:
        assert all(m < n for m, n in zip(norms, norms[1:])) and norms[-1] >= 8 * norms[0]
    else:
        assert norms[-1] <= 2 * norms[0]


# --- exactness properties ---------------------------------------------------

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(fractions, min_size=0, max_size=4).map(tuple)


def _nonzero_expr(num, den):
    try:
        return RationalExpr.make(num, den)
    except ZeroDivisionError:
        return None


exprs = st.builds(_nonzero_expr, polys, polys).filter(lambda e: e is not None)


@given(a=exprs, b=exprs, c=exprs)
def test_rational_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a - a == RationalExpr.constant(0)


@given(e=exprs)
def test_rational_print_parse_roundtrip(e):
    printed = str(e)
    again = parse_rational(printed)
    assert again == e
    assert str(again) == printed


@pytest.mark.parametrize(
    "text, message, position",
    [("(1", "expected ')'", 2), ("1 2", "unexpected trailing input '2'", 2)],
    ids=["unclosed", "trailing"],
)
def test_parse_names_what_it_expected_and_where(text, message, position):
    with pytest.raises(OmegaSyntaxError, match=re.escape(f"{message} (at position {position})")) as err:
        parse_rational(text)
    assert err.value.position == position


def test_rational_expressions_refuse_zero_divisors_and_poles():
    one = parse_rational("1")
    with pytest.raises(ZeroDivisionError, match="^division by the zero polynomial$"):
        one / ZERO_EXPR
    with pytest.raises(ZeroDivisionError, match="^reciprocal of the zero function$"):
        ZERO_EXPR.reciprocal()
    with pytest.raises(ZeroDivisionError, match="^expression has a pole at n=1$"):
        parse_rational("1/(n-1)").eval(1)


def test_elements_refuse_unknown_branches_and_points():
    e = demo_function()
    with pytest.raises(ValueError, match="^unknown branch tag 'middle'$"):
        e.branch("middle")
    with pytest.raises(ValueError, match="^point index must be >= 1$"):
        e.value_at(0)
    with pytest.raises(ValueError, match="^points must be >= 1$"):
        diagonal_truncation(e, 0)


def test_sign_analysis_decides_coefficients_of_any_size():
    # each has a root bound past 10^6, so each is decided by root isolation, not by enumerating integers
    for text in ("(n+10000000)/(n+1)", "(n+1000000)/(n+1)", "((n-2000)*(n-2000)+1)/(n*n)"):
        big = parse_rational(text)
        assert is_well_supported(OmegaElement.of(big, big)), text
    assert is_well_supported(parse_element("odd=0;even=(n+999990)/(n+1)"))
    with pytest.raises(ValueError, match=f"^odd branch undefined at n={10**13}$"):
        parse_element(f"odd=1/(n-{10**13});even=1")
    x = parse_element(f"odd=(n-{10**13 + 1})/(n+1);even=1")
    assert a_inverse_classify(parse_element("odd=1;even=1"), x).verdict is Verdict.NO_SOLUTION


def _cauchy_bound(p) -> int:
    """Least integer B >= 1 with |p_d| B^d > sum |p_i| B^i over i < d: every real root of p lies in (-B, B)."""
    b = 1
    while abs(p[-1]) * b ** (len(p) - 1) <= sum(abs(c) * b**i for i, c in enumerate(p[:-1])):
        b += 1
    return b


def _planted(roots, factor):
    """factor * prod(n - r) over the planted roots, repeats kept."""
    p = tuple(factor)
    for r in roots:
        p = _pmul(p, (Fraction(-r), Fraction(1)))
    return p


planted_roots = st.lists(st.integers(1, 20), max_size=4)
factors = st.lists(fractions, min_size=1, max_size=3).filter(lambda c: c[-1] != 0)


@given(roots=planted_roots, factor=factors, half_roots=st.lists(st.integers(0, 20), max_size=2))
def test_roots_and_signs_agree_with_evaluation_at_every_integer(roots, factor, half_roots):
    inverse = RationalExpr.make((1,), _planted(roots, factor))
    bound = _cauchy_bound(inverse.den)
    assert inverse.pole_points() == [n for n in range(1, bound) if not _peval(inverse.den, Fraction(n))]
    # poles at half-integers only, so the expression is defined at every integer n >= 1
    expr = RationalExpr.make(_planted(roots, factor), _planted([Fraction(2 * s + 1, 2) for s in half_roots], (1,)))
    p = _pmul(expr.num, expr.den)
    brute = all(expr.eval(n) >= 0 for n in range(1, _cauchy_bound(p))) and p[-1] > 0
    assert _branch_nonnegative(expr) is brute


def test_a_repeated_root_is_found_with_the_simple_ones():
    # every member of the chain of p itself vanishes at the double root 8; the square-free chain does not
    assert parse_rational("1/((n-8)*(n-8)*(n-3)*(n-12))").pole_points() == [3, 8, 12]


def test_parse_refuses_a_literal_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(OmegaSyntaxError, match=re.escape(f"integer literal longer than {limit} digits (at position 2)")):
        parse_rational("n+" + "1" * (limit + 1))
    assert parse_rational("9" * limit) == RationalExpr.constant(int("9" * limit))


@pytest.mark.parametrize(
    ("literal", "point"),
    [(f"odd=1/(n*{10**400});even=1", 1), (f"odd=1;even={10**400}", 2)],
    ids=["rounds-to-zero", "past-float-max"],
)
def test_truncation_refuses_values_a_float_cannot_hold(literal, point):
    with pytest.raises(ValueError, match=f"^value at point {point} is nonzero and outside the float range$"):
        diagonal_truncation(parse_element(literal), 3)
    # a subnormal value is held, as it is
    assert diagonal_truncation(parse_element(f"odd=1/{2**1070};even=1"), 2)[0, 0] == 2.0**-1070
