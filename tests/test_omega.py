"""Exact symbolic sequence-space algebra: parser, limits, classification."""

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


def test_element_rejects_pole_on_domain():
    with pytest.raises(ValueError):
        OmegaElement.of(parse_rational("1/(n-3)"), RationalExpr.constant(0))


def test_pole_search_is_bounded():
    # no sign change: no positive root, decided without a divisor scan
    e = parse_element(f"odd=1/(n+{10**30});even=1")
    assert e.odd_branch.pole_points() == []
    # a sign change with a huge constant term is refused, not scanned
    with pytest.raises(ValueError):
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
