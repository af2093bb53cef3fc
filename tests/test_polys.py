from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import SparsePoly, UsageError

X = SparsePoly.variable("x", ("x", "y"))
Y = SparsePoly.variable("y", ("x", "y"))


def poly_from(terms, symbols=("x", "y")):
    return SparsePoly.build(tuple(sorted(symbols)), terms)


# evaluation points stay in [-1, 1] so the float finite-difference
# comparison below is far from cancellation trouble
rationals = st.fractions(
    min_value=-1, max_value=1, max_denominator=6
)

small_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
    ),
    max_size=5,
).map(lambda items: poly_from([(e, Fraction(c)) for e, c in items]))


def test_basic_arith():
    assert (X + Y).terms == {(1, 0): 1, (0, 1): 1}
    assert ((X + 1) * (X - 1)).terms == {(2, 0): 1, (0, 0): -1}
    assert X.scale(0).is_zero()
    assert X.scale(0).terms == {}


def test_add_aligns_by_name():
    x_only = SparsePoly.variable("x")
    y_only = SparsePoly.variable("y")
    assert (x_only + y_only).symbols == ("x", "y")
    assert (x_only + y_only) == X + Y


def test_derivative_examples():
    p = poly_from([((2, 1), 1)])  # x^2 y
    assert p.derivative("x", 2) == poly_from([((0, 1), 2)])
    cube = poly_from([((3, 0), 1)])
    assert cube.derivative("x") == poly_from([((2, 0), 3)])
    assert poly_from([((0, 2), 1)]).derivative("x").is_zero()
    with pytest.raises(UsageError):
        X.derivative("z")
    with pytest.raises(UsageError):
        X.derivative("x", 0)


def test_coefficient_lookup():
    p = poly_from([((2, 0), 1), ((1, 1), 3)])
    assert p.coefficient((1, 1)) == 3
    assert p.coefficient((0, 2)) == 0
    assert p.coefficient_of(x=1, y=1) == 3
    assert p.coefficient_of(x=2) == 1
    with pytest.raises(UsageError):
        p.coefficient((1,))


def test_restrict_min_degree():
    p = SparsePoly.build(
        ("eps", "x"), [((3, 2), 1), ((5, 2), 1)]
    )  # x^2 eps^3 + x^2 eps^5
    assert p.restrict_min_degree({"x": 2}, "eps") == 3
    q = SparsePoly.build(("eps", "x", "y"), [((0, 0, 2), 1)])
    assert q.restrict_min_degree({"x": 2}, "eps") is None


def test_section():
    p = SparsePoly.build(
        ("eps", "x", "y"), [((2, 1, 1), 5), ((0, 1, 1), 7), ((1, 2, 0), 1)]
    )
    sec = p.section({"x": 1, "y": 1})
    assert sec.symbols == ("eps",)
    assert sec.terms == {(2,): 5, (0,): 7}


def test_evaluate():
    p = poly_from([((2, 0), 1), ((0, 0), -1)])  # x^2 - 1
    assert p.evaluate({"x": 2, "y": 0}) == 3
    assert p.evaluate({"x": 0, "y": 5}) == -1
    assert (X * Y).evaluate({"x": 1, "y": Fraction(1, 2)}) == Fraction(1, 2)
    with pytest.raises(UsageError):
        p.evaluate({"x": 1})


def test_substitute():
    p = X * X * Y + X
    q = p.substitute({"y": Fraction(1, 2)})
    assert q.symbols == ("x",)
    assert q.terms == {(2,): Fraction(1, 2), (1,): 1}


@given(small_polys, small_polys, small_polys)
@settings(max_examples=80, deadline=None)
def test_ring_distributivity(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(small_polys, small_polys)
@settings(max_examples=80, deadline=None)
def test_leibniz_rule(p, q):
    lhs = (p * q).derivative("x")
    rhs = p.derivative("x") * q + p * q.derivative("x")
    assert lhs == rhs


@given(small_polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(p, ax, ay):
    h = 1e-6
    fx = float(p.evaluate({"x": Fraction(ax) + Fraction(1, 10**6), "y": ay}))
    bx = float(p.evaluate({"x": Fraction(ax) - Fraction(1, 10**6), "y": ay}))
    fd = (fx - bx) / (2 * h)
    exact = float(p.derivative("x").evaluate({"x": ax, "y": ay}))
    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


@given(small_polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_hessian_matches_double_derivative(p, ax, ay):
    # zero point values exercise 0^0 = 1 in the one-pass read
    for point in ({"x": ax, "y": ay}, {"x": 0, "y": ay}, {"x": 0, "y": 0}):
        h = p.hessian(("y", "x"), point)
        for r, a in enumerate(("y", "x")):
            for s, b in enumerate(("y", "x")):
                assert h[r][s] == p.derivative(a).derivative(b).evaluate(point)


def test_hessian_selected_symbols_and_rational_coefficients():
    p = SparsePoly.build(
        ("eps", "x", "y"),
        [((1, 2, 0), Fraction(3, 4)), ((0, 1, 1), 5), ((2, 0, 3), Fraction(-1, 3))],
    )
    point = {"eps": Fraction(1, 2), "x": 0, "y": Fraction(-2, 3)}
    h = p.hessian(("x", "y"), point)
    want = [
        [p.derivative(a).derivative(b).evaluate(point) for b in ("x", "y")]
        for a in ("x", "y")
    ]
    assert h == want == [[Fraction(3, 4), 5], [5, Fraction(1, 3)]]
    with pytest.raises(UsageError):
        p.hessian(("x", "x"), point)
    with pytest.raises(UsageError):
        p.hessian(("x",), {"x": 0, "y": 0})
    with pytest.raises(UsageError):
        p.hessian(("z",), point)


def test_json_round_trip_canonical_order():
    p = poly_from([((1, 1), 3), ((2, 0), 1), ((0, 0), -2)])
    data = p.to_json()
    assert data["symbols"] == ["x", "y"]
    assert [t["exp"] for t in data["terms"]] == sorted(t["exp"] for t in data["terms"])
    assert SparsePoly.from_json(data) == p


def test_str_rendering():
    assert str(poly_from([])) == "0"
    assert "x^2" in str(poly_from([((2, 0), 1)]))


# non-homogeneous polynomials in three symbols: rational coefficients with
# unrelated denominators, and terms of every degree from 0 up
mixed_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
    ),
    max_size=8,
).map(lambda items: SparsePoly.build(("e", "x", "y"), items))
mixed_points = st.tuples(
    *[st.sampled_from([0, 1, -1]) | st.fractions(-2, 2, max_denominator=9)] * 3
)


@given(mixed_polys, mixed_points, st.sampled_from([("x", "y"), ("y", "e", "x"), ("e",)]))
@settings(max_examples=120, deadline=None)
def test_integer_hessian_read_matches_double_derivative(p, values, chosen):
    point = dict(zip(("e", "x", "y"), values))
    h = p.hessian(chosen, point)
    want = [[p.derivative(a).derivative(b).evaluate(point) for b in chosen] for a in chosen]
    assert h == want
    assert all(type(x) is Fraction for row in h for x in row)


def test_integer_hessian_read_low_degree_and_mixed_denominators():
    # degree 0 and 1 terms have no second derivative; a degree-2 term beside
    # a degree-4 one is brought to the common denominator L^(dmax - 2)
    p = SparsePoly.build(
        ("x", "y"),
        [((0, 0), Fraction(7, 5)), ((1, 0), -2), ((0, 1), Fraction(1, 3)),
         ((1, 1), Fraction(-5, 6)), ((2, 2), Fraction(3, 7)), ((4, 0), 1)],
    )
    point = {"x": Fraction(-2, 3), "y": Fraction(5, 4)}
    want = [
        [p.derivative(a).derivative(b).evaluate(point) for b in ("x", "y")]
        for a in ("x", "y")
    ]
    assert p.hessian(("x", "y"), point) == want
    # a polynomial of degree at most 1 has the zero Hessian
    linear = SparsePoly.build(("x", "y"), [((0, 0), 3), ((1, 0), Fraction(1, 2))])
    assert linear.hessian(("x", "y"), point) == [[0, 0], [0, 0]]
    assert SparsePoly.zero(("x",)).hessian(("x",), {"x": 0}) == [[0]]
