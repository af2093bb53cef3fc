from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import UsageError
from graphnorms.rationals import (
    format_rational,
    integer_kth_root,
    kth_root_interval,
    parse_rational,
)


def test_format_and_parse():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-2, 4)) == "-1/2"
    assert parse_rational("7/3") == Fraction(7, 3)
    assert parse_rational("-4") == Fraction(-4)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(UsageError):
        parse_rational("1/0")
    with pytest.raises(UsageError):
        parse_rational("abc")
    # int() reads each of these, but format_rational writes none of them
    for text in ("1_0", " 1 ", "1/ 2", "+3", "١/٢", "２", "1/-2", "-", "1/", "/2", "--1", "1/2/3"):
        with pytest.raises(UsageError) as err:
            parse_rational(text)
        assert str(err.value) == f"malformed rational {text!r}"
    assert parse_rational("-0") == 0
    assert parse_rational("-12/18") == Fraction(-2, 3)
    for flag in (True, False):
        with pytest.raises(UsageError):
            parse_rational(flag)


@given(st.integers(0, 10**12), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_integer_kth_root(m, k):
    r = integer_kth_root(m, k)
    assert r**k <= m < (r + 1) ** k


@given(
    st.fractions(min_value=0, max_value=100, max_denominator=50),
    st.integers(1, 6),
)
@settings(max_examples=60, deadline=None)
def test_root_interval_brackets(x, k):
    lo, hi = kth_root_interval(x, k)
    assert hi - lo == Fraction(1, 10**12)
    assert lo**k <= x < hi**k  # lo is the floor


def test_root_interval_exact_values():
    lo, hi = kth_root_interval(Fraction(16), 4)
    assert lo == 2
    lo, hi = kth_root_interval(Fraction(1, 16), 4)
    assert lo == Fraction(1, 2)
