from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import SparsePoly, SymRationalMatrix, UsageError
from oracles import evaluate_terms, formal_hessian, rational_terms, sparse_poly


def poly_from(terms, symbols=("x", "y")):
    return sparse_poly(tuple(sorted(symbols)), terms)


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


def test_derivative_examples():
    # second derivatives worked by hand, through the read and the oracle
    p = poly_from([((2, 1), 1)])  # x^2 y
    point = {"x": 3, "y": 5}
    assert p.hessian(("x", "y"), point).rows() == formal_hessian(p, ("x", "y"), point) == [
        [10, 6],
        [6, 0],
    ]
    cube = poly_from([((3, 0), 1)])
    assert cube.hessian(("x",), {"x": Fraction(1, 2), "y": 0}).rows() == [[3]]
    assert poly_from([((0, 2), 1)]).hessian(("x",), {"x": 1, "y": 1}).rows() == [[0]]
    with pytest.raises(UsageError):
        p.hessian(("z",), point)


def test_coefficient_lookup():
    p = poly_from([((2, 0), 1), ((1, 1), 3), ((0, 1), Fraction(-1, 6))])
    assert p.coefficient_of(x=1, y=1) == 3
    assert p.coefficient_of(y=2) == 0
    assert p.coefficient_of(x=2) == 1
    assert p.coefficient_of(y=1) == Fraction(-1, 6)
    assert p.coefficient_of() == 0
    with pytest.raises(UsageError):
        p.coefficient_of(z=1)


def test_storage_is_integer_numerators_over_one_denominator():
    p = sparse_poly(("x", "y"), [((2, 0), Fraction(3, 4)), ((1, 1), Fraction(-5, 6))])
    assert p.den == 12
    assert p.terms == {(2, 0): 9, (1, 1): -10}
    assert rational_terms(p) == {(2, 0): Fraction(3, 4), (1, 1): Fraction(-5, 6)}
    assert SparsePoly(("x",), {(1,): 3}, 6).coefficient_of(x=1) == Fraction(1, 2)
    for numerator in (Fraction(1, 2), Fraction(2), 0):
        with pytest.raises(UsageError):
            SparsePoly(("x",), {(1,): numerator})
    for den in (0, -1, Fraction(1)):
        with pytest.raises(UsageError):
            SparsePoly(("x",), {(1,): 1}, den)


def test_evaluate():
    # the oracle's evaluation over the terms, with 0^0 = 1
    p = poly_from([((2, 0), 1), ((0, 0), -1)])  # x^2 - 1
    assert evaluate_terms(p.symbols, rational_terms(p), {"x": 2, "y": 0}) == 3
    assert evaluate_terms(p.symbols, rational_terms(p), {"x": 0, "y": 5}) == -1
    xy = poly_from([((1, 1), Fraction(1, 3))])
    assert evaluate_terms(xy.symbols, rational_terms(xy), {"x": 1, "y": Fraction(1, 2)}) == Fraction(1, 6)


@given(small_polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_derivative_matches_finite_difference(p, ax, ay):
    # the central second difference is exact on polynomials of degree <= 3
    # in the differenced symbol, as every small_polys term is
    h = Fraction(1, 10**3)
    point = {"x": ax, "y": ay}
    hess = p.hessian(("x", "y"), point).rows()
    for r, s in enumerate(("x", "y")):
        at = lambda d: evaluate_terms(p.symbols, rational_terms(p), {**point, s: point[s] + d})
        assert hess[r][r] == (at(h) - 2 * at(0) + at(-h)) / h**2


@given(small_polys, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_hessian_matches_double_derivative(p, ax, ay):
    # zero point values exercise 0^0 = 1 and the graded copies of the read
    for point in ({"x": ax, "y": ay}, {"x": 0, "y": ay}, {"x": 0, "y": 0}):
        assert p.hessian(("y", "x"), point).rows() == formal_hessian(p, ("y", "x"), point)


def test_hessian_selected_symbols_and_rational_coefficients():
    p = sparse_poly(
        ("eps", "x", "y"),
        [((1, 2, 0), Fraction(3, 4)), ((0, 1, 1), 5), ((2, 0, 3), Fraction(-1, 3))],
    )
    point = {"eps": Fraction(1, 2), "x": 0, "y": Fraction(-2, 3)}
    h = p.hessian(("x", "y"), point).rows()
    want = formal_hessian(p, ("x", "y"), point)
    assert h == want == [[Fraction(3, 4), 5], [5, Fraction(1, 3)]]
    with pytest.raises(UsageError):
        p.hessian(("x", "x"), point)
    with pytest.raises(UsageError):
        p.hessian(("x",), {"x": 0, "y": 0})
    with pytest.raises(UsageError):
        p.hessian(("z",), point)


# non-homogeneous polynomials in three symbols: rational coefficients with
# unrelated denominators, and terms of every degree from 0 up; exponents up
# to 4 on every symbol put terms with 0 to 4 factors of a coordinate that
# is 0 at the point, of which an entry keeps exactly the ones with as many
# factors as it differentiates away
mixed_polys = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
    ),
    max_size=8,
).map(lambda items: sparse_poly(("e", "x", "y"), items))
mixed_points = st.tuples(
    *[st.sampled_from([0, 1, -1]) | st.fractions(-2, 2, max_denominator=9)] * 3
)


@given(mixed_polys, mixed_points, st.sampled_from([("x", "y"), ("y", "e", "x"), ("e",)]))
@settings(max_examples=120, deadline=None)
def test_integer_hessian_read_matches_double_derivative(p, values, chosen):
    point = dict(zip(("e", "x", "y"), values))
    h = p.hessian(chosen, point)
    assert h.rows() == formal_hessian(p, chosen, point)
    assert all(type(x) is Fraction for x in h.tri)


@given(mixed_polys, mixed_points.filter(lambda v: all(v)))
@settings(max_examples=80, deadline=None)
def test_one_plan_reads_every_zero_pattern(p, values):
    # one plan, as a refutation walk holds it, read at a list of points: two
    # zero selected coordinates, a zero unselected one, all zeros, and back
    # to none
    chosen = ("y", "x")
    plan = p._plan(chosen)
    base = dict(zip(("e", "x", "y"), values))
    zeroed = [(), ("x",), ("x", "y"), ("e",), ("e", "y"), ("e", "x", "y"), ()]
    for names in zeroed:
        point = {**base, **dict.fromkeys(names, 0)}
        k, totals, divisors = p._integer_hessian(plan, point)
        read = SymRationalMatrix(k, tuple(map(Fraction, totals, divisors)))
        assert read.rows() == formal_hessian(p, chosen, point), names


# five or six symbols, one of whose columns is all zero, and exponents up to
# 4: the held columns make two or three pair tables, the last one alone
# when they are odd in number. A homogeneous polynomial has every degree gap
# 0 and skips the gap pass, as the search's count polynomial does
@st.composite
def wide_polys(draw):
    symbols = ("a", "b", "c", "d", "e", "f")[: draw(st.sampled_from([5, 6]))]
    idle = draw(st.sampled_from(range(len(symbols))))
    free = st.lists(st.integers(0, 4), min_size=len(symbols) - 1, max_size=len(symbols) - 1)
    if draw(st.booleans()):
        degree = draw(st.integers(2, 8))
        free = free.filter(lambda e: sum(e) == degree)
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    items = draw(st.lists(st.tuples(free, coeffs), max_size=8))
    return sparse_poly(symbols, [(e[:idle] + [0] + e[idle:], c) for e, c in items])


@given(wide_polys(), st.data())
@settings(max_examples=80, deadline=None)
def test_one_plan_reads_wide_polynomials(p, data):
    # one plan read at points with 0 to 4 zero coordinates, selected or
    # not, and +/- 1 coordinates, which leave a column out of its table
    chosen = tuple(data.draw(st.lists(st.sampled_from(p.symbols), min_size=1, unique=True)))
    plan = p._plan(chosen)
    nonzero = st.sampled_from([1, -1]) | st.fractions(-2, 2, max_denominator=9).filter(bool)
    base = dict(zip(p.symbols, data.draw(st.tuples(*[nonzero] * len(p.symbols)))))
    for _ in range(4):
        names = data.draw(st.lists(st.sampled_from(p.symbols), max_size=4, unique=True))
        point = {**base, **dict.fromkeys(names, 0)}
        k, totals, divisors = p._integer_hessian(plan, point)
        read = SymRationalMatrix(k, tuple(map(Fraction, totals, divisors)))
        assert read.rows() == formal_hessian(p, chosen, point), names


def test_zero_grade_splits_by_entry():
    # at x = y = 0 the terms x^2 w, x y w and y^2 w all have grade 2 in the
    # zero coordinates, the grade of entries (x, x), (x, y) and (y, y), and
    # each entry takes exactly the one of them it files: 3 x^2 w gives
    # (x, x) 6 w, 5 x y w gives (x, y) 5 w and 7 y^2 w gives (y, y) 14 w.
    # The grade-3 terms x^2 y w, x y^2 w and x^3 reach the same entries
    # and vanish, and so do the terms of grade 1, x w^2 and y w^3
    p = sparse_poly(
        ("w", "x", "y"),
        [((1, 2, 0), 3), ((1, 1, 1), 5), ((1, 0, 2), 7), ((1, 2, 1), 11),
         ((1, 1, 2), 13), ((0, 3, 0), 17), ((2, 1, 0), 19), ((3, 0, 1), 23)],
    )
    for w in (2, Fraction(-3, 4)):
        point = {"w": w, "x": 0, "y": 0}
        assert p.hessian(("x", "y"), point).rows() == [[6 * w, 5 * w], [5 * w, 14 * w]]
        assert p.hessian(("y", "x"), point).rows() == [[14 * w, 5 * w], [5 * w, 6 * w]]
        # the w-row: (w, w) has grade 0, (w, x) and (w, y) grade 1
        assert p.hessian(("w", "x", "y"), point).rows() == formal_hessian(p, ("w", "x", "y"), point)


def test_interleaved_selections_plan_each_read(monkeypatch):
    # the polynomial keeps no plan: each hessian() call plans its selection
    # once, and reads the same values whatever was read before
    p = sparse_poly(
        ("e", "x", "y"),
        [((0, 2, 0), 3), ((1, 1, 1), Fraction(-5, 6)), ((2, 0, 3), 7),
         ((1, 3, 1), Fraction(2, 9)), ((0, 0, 1), 4), ((4, 1, 0), -1)],
    )
    plans = []
    real = SparsePoly._plan

    def planning(self, symbols):
        plans.append(symbols)
        return real(self, symbols)

    monkeypatch.setattr(SparsePoly, "_plan", planning)
    points = [
        {"e": Fraction(1, 2), "x": -1, "y": Fraction(2, 3)},
        {"e": 0, "x": Fraction(3, 4), "y": 0},
        {"e": 2, "x": 0, "y": Fraction(-1, 5)},
    ]
    for point in points * 2:
        for chosen in (("x", "y"), ("y", "e")):
            assert p.hessian(chosen, point).rows() == formal_hessian(p, chosen, point)
    assert plans == [("x", "y"), ("y", "e")] * len(points * 2)


def test_integer_hessian_read_low_degree_and_mixed_denominators():
    # degree 0 and 1 terms have no second derivative; a degree-2 term beside
    # a degree-4 one is brought to the common denominator L^(dmax - 2)
    p = sparse_poly(
        ("x", "y"),
        [((0, 0), Fraction(7, 5)), ((1, 0), -2), ((0, 1), Fraction(1, 3)),
         ((1, 1), Fraction(-5, 6)), ((2, 2), Fraction(3, 7)), ((4, 0), 1)],
    )
    point = {"x": Fraction(-2, 3), "y": Fraction(5, 4)}
    assert p.hessian(("x", "y"), point).rows() == formal_hessian(p, ("x", "y"), point)
    # a polynomial of degree at most 1 has the zero Hessian
    linear = sparse_poly(("x", "y"), [((0, 0), 3), ((1, 0), Fraction(1, 2))])
    assert linear.hessian(("x", "y"), point).rows() == [[0, 0], [0, 0]]
    assert SparsePoly(("x",), {}).hessian(("x",), {"x": 0}).rows() == [[0]]
    # an empty selection is no matrix, with or without terms to read
    for poly in (p, linear):
        with pytest.raises(UsageError):
            poly.hessian((), point)


def test_formal_hessian_sees_a_perturbed_coefficient():
    # the oracle is not vacuous: moving the coefficient of a term of degree
    # 2 in the chosen symbols moves an entry of its Hessian off the read's,
    # at any point
    p = sparse_poly(
        ("e", "x", "y"),
        [((0, 2, 0), 3), ((0, 1, 1), Fraction(-5, 6)), ((1, 0, 1), 7),
         ((1, 2, 1), Fraction(2, 9)), ((0, 0, 1), 4)],
    )
    chosen = ("x", "y")
    quadratic = [(0, 2, 0), (0, 1, 1)]
    for point in ({"e": 0, "x": 0, "y": 0}, {"e": Fraction(1, 2), "x": -1, "y": Fraction(2, 3)}):
        read = p.hessian(chosen, point).rows()
        assert formal_hessian(p, chosen, point) == read
        for exp in quadratic:
            moved = SparsePoly(p.symbols, {**p.terms, exp: p.terms[exp] + p.den}, p.den)
            assert formal_hessian(moved, chosen, point) != read, exp
