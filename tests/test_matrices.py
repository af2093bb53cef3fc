from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphnorms import (
    SizeGuardError,
    SymRationalMatrix,
    UsageError,
    block_pm_ones,
    cut_norm,
    sample_matrix,
)
from graphnorms.matrices import load_matrix_text, pair_index, pair_list
from oracles import brute_cut_norm, permuted, random_rational_rows, random_sym_matrix


def test_pair_index_order():
    assert pair_list(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for n in range(1, 6):
        for k, (i, j) in enumerate(pair_list(n)):
            assert pair_index(i, j, n) == k
            assert pair_index(j, i, n) == k


def test_symmetry_validation():
    with pytest.raises(UsageError):
        SymRationalMatrix.from_rows([[0, 1], [2, 0]])
    with pytest.raises(UsageError):
        SymRationalMatrix.from_rows([[0, 1]])


def test_cut_norm_examples():
    assert cut_norm(SymRationalMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert cut_norm(SymRationalMatrix.from_rows([[0, 0], [0, 0]])) == 0
    pm = SymRationalMatrix.from_rows([[1, -1], [-1, 1]])
    assert brute_cut_norm(pm.rows()) == Fraction(1, 4)
    assert cut_norm(pm) == Fraction(1, 4)


@given(st.integers(0, 500), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_cut_norm_matches_brute_force(seed, n):
    rows = random_rational_rows(seed, n)
    assert cut_norm(SymRationalMatrix.from_rows(rows)) == brute_cut_norm(rows)


@given(st.integers(0, 500), st.integers(1, 6), st.integers(-5, 5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_cut_norm_scaling_and_bounds(seed, n, num, den):
    a = random_sym_matrix(seed, n)
    lam = Fraction(num, den)
    value = cut_norm(a)
    assert cut_norm(a.scale(lam)) == abs(lam) * value
    mean = abs(sum(a.at(i, j) for i in range(n) for j in range(n))) / n**2
    l1 = sum(abs(a.at(i, j)) for i in range(n) for j in range(n)) / Fraction(n**2)
    assert mean <= value <= l1


def test_cut_norm_sweep_limit():
    # the Gray-code sweep shares the limit of 16 with the other exhaustive sweeps
    assert cut_norm(block_pm_ones(8)) == Fraction(1, 4)
    with pytest.raises(SizeGuardError) as err:
        cut_norm(SymRationalMatrix.from_rows([[1] * 17 for _ in range(17)]))
    assert str(err.value) == "cut norm guard: n=17 > 16"


def test_block_pm_ones():
    assert block_pm_ones(1).rows() == [[1, -1], [-1, 1]]
    b = block_pm_ones(2)
    assert b.n == 4
    for i in range(4):
        for j in range(4):
            expected = 1 if (i < 2) == (j < 2) else -1
            assert b.at(i, j) == expected
    for n in (1, 2, 3):
        b = block_pm_ones(n)
        rows = b.rows()
        # rank one: every row is +/- the first; all row sums vanish
        assert all(row in (rows[0], [-x for x in rows[0]]) for row in rows)
        assert all(sum(row) == 0 for row in rows)
    # built dense from one integer: (2n)^2 entries held to the work limit
    assert block_pm_ones(50).n == 100
    with pytest.raises(SizeGuardError) as err:
        block_pm_ones(51)
    assert str(err.value) == "matrix guard: 102^2 = 10404 entries > 10000"


def test_sample_matrix_contracts():
    a = sample_matrix(3, "signed", seed=7)
    assert all(-1 <= x <= 1 for x in a.tri)
    assert sample_matrix(4, "signed", seed=3) == sample_matrix(4, "signed", seed=3)
    c = sample_matrix(3, "nonnegative", seed=11)
    assert all(0 <= x <= 1 for x in c.tri)
    assert all(x.denominator <= 8 for x in c.tri)
    with pytest.raises(UsageError):
        sample_matrix(2, "bogus", 0)


def test_json_round_trip():
    a = sample_matrix(3, "signed", seed=5)
    assert SymRationalMatrix.from_json(a.to_json()) == a
    import json

    assert load_matrix_text(json.dumps(a.to_json())) == a
    # integers accepted as shorthand
    b = load_matrix_text('{"n": 2, "entries": [[1, 0], [0, -1]]}')
    assert b.at(1, 1) == -1


def test_arithmetic_helpers():
    a = SymRationalMatrix.from_rows([[1, Fraction(-1, 2)], [Fraction(-1, 2), 0]])
    assert a.entrywise_abs().at(0, 1) == Fraction(1, 2)
    assert a.add(a).at(0, 0) == 2
    assert a.sub(a) == SymRationalMatrix.from_rows([[0, 0], [0, 0]])
    assert a.scale(Fraction(1, 3)).at(0, 1) == Fraction(-1, 6)
    assert a.entries_in(-1, 1)
    assert not a.entries_in(0, 1)
    perm = permuted(a, [1, 0])
    assert perm.at(1, 1) == 1 and perm.at(0, 0) == 0
